"""Randomised differential test of the engine's one admission path.

The engine asks ``gate.admit(ctx, proposal)`` once per proposal, in
stream order, whatever the block size.  A batch of one is the slow,
obviously-correct twin: for every gated variant (RSp, whose gate
charges a model query per proposal; RSpf and RSpb, whose gates are
free) and for budget walls placed at seeded random charges the clock
accepted in an unbudgeted run — walls on RSp's model-query charges
among them — blocks of 3 and 64 must end in the same state as blocks
of 1: the same ``state_digest``, the same ``stream_positions`` and the
same ``exhausted_budget``.

A wall is placed either exactly at an accepted reading (that charge is
paid, the next one is refused) or just below it (that charge itself is
refused).
"""

import random

import pytest

from repro.machines import SANDYBRIDGE
from repro.orio.evaluator import OrioEvaluator
from repro.perf.simclock import SimClock
from repro.search.biasing import hybrid_search
from repro.search.model_free import model_free_pruned_search
from repro.search.pruning import pruned_search
from repro.spec import TunerSpec

from tests.search.golden_scenarios import (
    POOL,
    _kernel,
    _source_training,
    _stream,
    _surrogate,
)

NMAX = 16
BATCH_SIZES = (1, 3, 64)
WALL_SEEDS = (0, 1, 2)
WALLS_PER_SEED = 4


class ChargeLog(SimClock):
    """A clock that remembers every accepted charge and its reading."""

    def __init__(self, budget_seconds=None):
        super().__init__(budget_seconds)
        self.charges = []

    def advance(self, seconds):
        now = super().advance(seconds)
        self.charges.append((seconds, now))
        return now


SEARCHES = {
    "RSp": lambda ev, k, src, spec: pruned_search(
        ev, _stream(k), src[1], nmax=NMAX, spec=spec
    ),
    "RSpf": lambda ev, k, src, spec: model_free_pruned_search(
        ev, src[0], nmax=NMAX, spec=spec
    ),
    "RSpb": lambda ev, k, src, spec: hybrid_search(
        ev, k.space, src[1], nmax=NMAX, spec=spec
    ),
}


@pytest.fixture(scope="module")
def kernel():
    return _kernel()


@pytest.fixture(scope="module")
def source(kernel):
    training = _source_training(kernel)
    return training, _surrogate(kernel, training)


def _spec(batch):
    return (TunerSpec().with_value("pool.size", POOL)
            .with_value("engine.batch_size", batch))


def _run(name, kernel, source, batch, budget=None):
    ev = OrioEvaluator(kernel, SANDYBRIDGE, clock=ChargeLog(budget))
    return SEARCHES[name](ev, kernel, source, _spec(batch)), ev.clock


def _walls(charges, query_cost, seed):
    """Seeded walls over the accepted ``charges``, half of them on
    model-query charges when the search makes any."""
    rng = random.Random(seed)
    paid = [i for i, (seconds, _) in enumerate(charges) if seconds > 0]
    queries = [i for i in paid if charges[i][0] == query_cost]
    others = [i for i in paid if charges[i][0] != query_cost]
    picks = rng.sample(others, WALLS_PER_SEED - WALLS_PER_SEED // 2)
    pool = queries or others
    picks += rng.sample(pool, WALLS_PER_SEED // 2)
    walls = []
    for i in picks:
        reading = charges[i][1]
        below = charges[i - 1][1] if i else 0.0
        walls.append(reading if rng.random() < 0.5 else (below + reading) / 2)
    return walls


def _state(trace):
    return (trace.state_digest(), trace.metadata.get("stream_positions"),
            trace.exhausted_budget)


@pytest.mark.parametrize("seed", WALL_SEEDS)
@pytest.mark.parametrize("name", sorted(SEARCHES))
def test_every_batch_size_stops_at_the_same_state(name, seed, kernel, source):
    reference, clock = _run(name, kernel, source, batch=1)
    assert not reference.exhausted_budget
    query_cost = source[1].predict_seconds(1)
    if name == "RSp":
        # RSp's gate charges one model query per proposal.
        assert sum(s == query_cost for s, _ in clock.charges) >= NMAX
    for budget in _walls(clock.charges, query_cost, seed):
        states = {
            batch: _state(_run(name, kernel, source, batch, budget)[0])
            for batch in BATCH_SIZES
        }
        assert states[1][2] or budget >= clock.charges[-1][1]
        for batch in BATCH_SIZES[1:]:
            assert states[batch] == states[1], (name, budget, batch)
