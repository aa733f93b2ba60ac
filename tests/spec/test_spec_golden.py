"""The default TunerSpec is the status quo, golden-trace proven.

Every search factory reads its knobs from ``spec=``, so the golden
suite (``tests/search/test_golden_equivalence.py``) already runs the
spec path; an explicitly built ``TunerSpec()`` must reproduce the same
fixtures as the shared ``DEFAULT_SPEC``.  The counter-tests show the
spec is live: a non-default knob changes the trace.
"""

import pytest

from repro.reliability import trace_to_dict
from repro.search.warm_start import warm_started_search
from repro.spec import TunerSpec
from repro.transfer.online import online_biased_search
from repro.tuner import GeneticAlgorithm

from tests.search.golden_scenarios import (
    SCENARIOS,
    _kernel,
    _source_training,
    _surrogate,
    _target,
)
from tests.search.test_golden_equivalence import FIXTURES

# One scenario per search family: plain RS (serial and budget-walled),
# pruning, biasing, their model-free variants, and the transfer-seeded
# SMBO loop.
SPEC_SCENARIOS = (
    "rs_clean",
    "rs_budget",
    "rsp_clean",
    "rsb_clean",
    "rspf_clean",
    "rsbf_clean",
    "smbo_transfer",
)


@pytest.mark.parametrize("name", SPEC_SCENARIOS)
def test_default_spec_matches_golden(name):
    trace = SCENARIOS[name](spec=TunerSpec())
    assert trace_to_dict(trace) == FIXTURES[name]


def test_non_default_spec_changes_the_search():
    """Counter-test: the spec is actually live on these code paths — an
    aggressive pruning quantile must change the pruned search's trace."""
    tight = TunerSpec().with_value("gate.delta_percent", 1.0)
    trace = SCENARIOS["rsp_clean"](spec=tight)
    assert trace_to_dict(trace) != FIXTURES["rsp_clean"]


# A pool small enough to change which configurations the model ranks
# first (the golden scenarios use POOL = 240).
SMALL_POOL = TunerSpec().with_value("pool.size", 12)


def test_pool_size_changes_the_warm_start():
    """Counter-test: the warm start's seed picks come from a pool of
    ``spec.pool.size`` configurations, not a fixed 10,000."""
    k = _kernel()
    training = _source_training(k)
    trace = warm_started_search(
        _target(k), k.space, GeneticAlgorithm(population_size=8, seed=3),
        surrogate=_surrogate(k, training), nmax=15, seed_evaluations=5,
        spec=SMALL_POOL,
    )
    assert trace_to_dict(trace) != FIXTURES["warm_ga_warm"]


def test_pool_size_changes_online_rsb():
    """Counter-test: online RSb ranks a pool of ``spec.pool.size``."""
    k = _kernel()
    trace = online_biased_search(
        _target(k), k.space, _source_training(k), nmax=16, spec=SMALL_POOL
    )
    assert trace_to_dict(trace) != FIXTURES["online_rsb"]
