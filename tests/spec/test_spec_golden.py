"""Counter-tests: a non-default spec knob changes the trace.

The default spec is the status quo: every search factory reads its
knobs from ``spec=``, so the golden suite
(``tests/search/test_golden_equivalence.py``) already runs the default
spec path, and ``tests/spec/test_spec.py`` pins ``TunerSpec() ==
DEFAULT_SPEC``.  The counter-tests here show the spec is live: a
non-default knob changes the trace, so the spec is not ignored.
"""

from repro.reliability import trace_to_dict
from repro.spec import TunerSpec
from repro.transfer.online import online_biased_search
from repro.tuner import GeneticAlgorithm, warm_started_search

from tests.search.golden_scenarios import (
    SCENARIOS,
    _kernel,
    _source_training,
    _surrogate,
    _target,
)
from tests.search.test_golden_equivalence import FIXTURES


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
