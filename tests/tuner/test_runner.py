"""Tests for the technique runner against the mini-app evaluators.

A tuning run is :func:`~repro.tuner.runner.warm_started_search` with
``seed_evaluations=0``: the technique alone, under the shared engine
accounting.
"""

import pytest

from repro.errors import SearchError
from repro.machines import SANDYBRIDGE
from repro.miniapps import MiniappEvaluator, make_hpl
from repro.perf.simclock import SimClock
from repro.tuner import (
    AUCBanditMetaTechnique,
    GeneticAlgorithm,
    RandomTechnique,
    SimulatedAnnealing,
    warm_started_search,
)


def hpl_evaluator(budget=None):
    return MiniappEvaluator(make_hpl(), SANDYBRIDGE, clock=SimClock(budget))


def tune(evaluator, technique, **kw):
    return warm_started_search(
        evaluator, evaluator.kernel.space, technique, seed_evaluations=0, **kw
    )


class TestTuningRun:
    def test_runs_to_budget(self):
        trace = tune(hpl_evaluator(), RandomTechnique(), nmax=25)
        assert trace.n_evaluations == 25
        assert len({r.config.index for r in trace.records}) == 25

    def test_clock_charged(self):
        ev = hpl_evaluator()
        tune(ev, RandomTechnique(), nmax=10)
        assert ev.clock.now > 0

    def test_cache_prevents_remeasurement(self):
        ev = hpl_evaluator()
        trace = tune(ev, SimulatedAnnealing(), nmax=30)
        # Annealing revisits configurations; measurements stay distinct.
        assert trace.n_evaluations == 30
        assert ev.n_evaluations == 30

    def test_budget_exhaustion_marks_trace(self):
        trace = tune(hpl_evaluator(budget=700.0), RandomTechnique(), nmax=100)
        assert trace.exhausted_budget
        assert trace.n_evaluations < 100

    def test_bandit_end_to_end(self):
        bandit = AUCBanditMetaTechnique(
            [RandomTechnique(), GeneticAlgorithm(population_size=6), SimulatedAnnealing()]
        )
        trace = tune(hpl_evaluator(), bandit, nmax=40)
        assert trace.n_evaluations == 40
        assert trace.best_runtime < trace.runtimes().mean()

    def test_invalid_nmax(self):
        with pytest.raises(SearchError):
            tune(hpl_evaluator(), RandomTechnique(), nmax=0)

    def test_trace_name(self):
        trace = tune(hpl_evaluator(), RandomTechnique(), nmax=5, name="custom")
        assert trace.algorithm == "custom"
