"""One budget-wall contract for every search.

Wherever the simulated clock's budget runs out — a model fit or pool
scoring in setup, a refit, a gate's model query, or an evaluation — a
search returns its partial trace: no exception, ``exhausted_budget``
set, ``total_elapsed == clock.now <= budget``, and the records are a
prefix of the unbudgeted run's (nothing is charged past the wall, and
the wall changes no decision made before it).

Each search runs twice per wall: once unbudgeted on a clock that logs
every accepted charge, then under a budget placed from that log.  The
"early" wall sits between the first and second charge (inside setup for
every search that fits a model there); the "mid" wall sits between the
two middle records.
"""

import pytest

from repro.kernels import get_kernel
from repro.machines import SANDYBRIDGE
from repro.orio.evaluator import OrioEvaluator
from repro.perf.simclock import SimClock
from repro.search.biasing import biased_search, hybrid_search
from repro.search.model_free import (
    model_free_biased_search,
    model_free_pruned_search,
)
from repro.search.pruning import pruned_search
from repro.search.random_search import random_search
from repro.search.warm_start import warm_started_search
from repro.spec import PoolSpec, SMBOSpec, TunerSpec
from repro.transfer.online import online_biased_search
from repro.transfer.smbo import smbo_search
from repro.tuner import GeneticAlgorithm, RandomTechnique, TuningRun

from tests.search.golden_scenarios import (
    POOL,
    _source_training,
    _stream,
    _surrogate,
)

POOL_SPEC = TunerSpec(pool=PoolSpec(size=POOL))


class ChargeLog(SimClock):
    """A clock that remembers its reading after every accepted charge."""

    def __init__(self, budget_seconds=None):
        super().__init__(budget_seconds)
        self.readings = []

    def advance(self, seconds):
        now = super().advance(seconds)
        self.readings.append(now)
        return now


@pytest.fixture(scope="module")
def kernel():
    return get_kernel("lu", n=128)


@pytest.fixture(scope="module")
def source(kernel):
    training = _source_training(kernel)
    return training, _surrogate(kernel, training)


SEARCHES = {
    "RS": lambda ev, k, src: random_search(ev, _stream(k), nmax=12),
    "RSp": lambda ev, k, src: pruned_search(
        ev, _stream(k), src[1], nmax=12, spec=POOL_SPEC
    ),
    "RSb": lambda ev, k, src: biased_search(
        ev, k.space, src[1], nmax=12, spec=POOL_SPEC
    ),
    "RSpb": lambda ev, k, src: hybrid_search(
        ev, k.space, src[1], nmax=12, spec=POOL_SPEC
    ),
    "RSpf": lambda ev, k, src: model_free_pruned_search(ev, src[0], nmax=12),
    "RSbf": lambda ev, k, src: model_free_biased_search(ev, src[0], nmax=12),
    "SMBO": lambda ev, k, src: smbo_search(
        ev, k.space, nmax=12, source_surrogate=src[1], seed=0,
        spec=TunerSpec(smbo=SMBOSpec(n_initial=3, pool_size=200)),
    ),
    "warm start": lambda ev, k, src: warm_started_search(
        ev, k.space, GeneticAlgorithm(population_size=8, seed=3),
        surrogate=src[1], nmax=12, spec=POOL_SPEC, seed_evaluations=4,
    ),
    "TuningRun": lambda ev, k, src: TuningRun(
        ev, RandomTechnique(seed=3), nmax=12
    ).run(),
    "online RSb": lambda ev, k, src: online_biased_search(
        ev, k.space, src[0], nmax=12, spec=POOL_SPEC, refit_every=4
    ),
}


def _run(name, kernel, source, budget=None):
    ev = OrioEvaluator(kernel, SANDYBRIDGE, clock=ChargeLog(budget))
    return SEARCHES[name](ev, kernel, source), ev.clock


def _wall(where, reference, clock):
    if where == "early":
        first, second = clock.readings[0], clock.readings[1]
        return (first + second) / 2
    mid = len(reference.records) // 2
    return (reference.records[mid - 1].elapsed + reference.records[mid].elapsed) / 2


@pytest.mark.parametrize("where", ["early", "mid"])
@pytest.mark.parametrize("name", sorted(SEARCHES))
def test_budget_wall_returns_partial_trace(name, where, kernel, source):
    reference, ref_clock = _run(name, kernel, source)
    assert not reference.exhausted_budget
    budget = _wall(where, reference, ref_clock)

    trace, clock = _run(name, kernel, source, budget)

    assert trace.exhausted_budget
    assert trace.total_elapsed == clock.now <= budget
    # Only charges the clock accepted were made, all of them the
    # reference run's, and the run stopped at the first it could not pay.
    assert clock.readings == [t for t in ref_clock.readings if t <= budget]
    n = trace.n_evaluations
    assert n < reference.n_evaluations
    assert [(r.config.index, r.runtime, r.elapsed) for r in trace.records] == [
        (r.config.index, r.runtime, r.elapsed) for r in reference.records[:n]
    ]


def test_rsp_stream_positions_exclude_the_proposal_in_flight(kernel, source):
    """A wall exactly at a record's clock reading refuses the next
    model query: that position is handed back, not counted."""
    reference, _ = _run("RSp", kernel, source)
    k = len(reference.records) // 2
    consumed = sum(r.skipped_before + 1 for r in reference.records[:k])

    trace, clock = _run("RSp", kernel, source, reference.records[k - 1].elapsed)

    assert trace.exhausted_budget and trace.n_evaluations == k
    assert trace.metadata["stream_positions"] == consumed
