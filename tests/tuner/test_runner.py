"""Tests for the tuning driver against the mini-app evaluators."""

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
    TuningRun,
)


def hpl_evaluator(budget=None):
    return MiniappEvaluator(make_hpl(), SANDYBRIDGE, clock=SimClock(budget))


class TestTuningRun:
    def test_runs_to_budget(self):
        run = TuningRun(hpl_evaluator(), RandomTechnique(), nmax=25)
        trace = run.run()
        assert trace.n_evaluations == 25
        assert run.database.n_distinct == 25

    def test_clock_charged(self):
        ev = hpl_evaluator()
        TuningRun(ev, RandomTechnique(), nmax=10).run()
        assert ev.clock.now > 0

    def test_cache_prevents_remeasurement(self):
        ev = hpl_evaluator()
        run = TuningRun(ev, SimulatedAnnealing(), nmax=30)
        trace = run.run()
        # Annealing revisits configurations; measurements stay distinct.
        assert trace.n_evaluations == 30
        assert ev.n_evaluations == 30

    def test_budget_exhaustion_marks_trace(self):
        run = TuningRun(hpl_evaluator(budget=700.0), RandomTechnique(), nmax=100)
        trace = run.run()
        assert trace.exhausted_budget
        assert trace.n_evaluations < 100

    def test_bandit_end_to_end(self):
        bandit = AUCBanditMetaTechnique(
            [RandomTechnique(), GeneticAlgorithm(population_size=6), SimulatedAnnealing()]
        )
        run = TuningRun(hpl_evaluator(), bandit, nmax=40)
        trace = run.run()
        assert trace.n_evaluations == 40
        assert trace.best_runtime < trace.runtimes().mean()

    def test_invalid_nmax(self):
        with pytest.raises(SearchError):
            TuningRun(hpl_evaluator(), RandomTechnique(), nmax=0)

    def test_trace_name(self):
        run = TuningRun(hpl_evaluator(), RandomTechnique(), nmax=5, name="custom")
        assert run.run().algorithm == "custom"
