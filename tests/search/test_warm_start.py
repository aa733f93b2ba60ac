"""Tests for warm-started heuristic search."""

import pytest

from repro.errors import SearchError
from repro.kernels import get_kernel
from repro.machines import SANDYBRIDGE, WESTMERE
from repro.orio.evaluator import OrioEvaluator
from repro.perf.simclock import SimClock
from repro.search import SharedStream, random_search
from repro.search.warm_start import warm_started_search
from repro.spec import PoolSpec, TunerSpec
from repro.transfer.surrogate import Surrogate
from repro.tuner import GeneticAlgorithm, SimulatedAnnealing


def _pool(size):
    """The default spec with a pool of ``size`` configurations."""
    return TunerSpec(pool=PoolSpec(size=size))


@pytest.fixture(scope="module")
def kernel():
    return get_kernel("lu", n=128)


@pytest.fixture(scope="module")
def surrogate(kernel):
    ev = OrioEvaluator(kernel, WESTMERE, clock=SimClock())
    trace = random_search(ev, SharedStream(kernel.space, seed="warm"), nmax=60)
    return Surrogate(kernel.space).fit(trace.training_data())


def evaluator(kernel):
    return OrioEvaluator(kernel, SANDYBRIDGE, clock=SimClock())


class TestWarmStart:
    def test_runs_to_budget(self, kernel, surrogate):
        trace = warm_started_search(
            evaluator(kernel), kernel.space, GeneticAlgorithm(population_size=8),
            surrogate=surrogate, nmax=30, spec=_pool(500), seed_evaluations=8,
        )
        assert trace.n_evaluations == 30
        assert trace.algorithm == "ga+warm"

    def test_seeds_are_surrogate_best(self, kernel, surrogate):
        trace = warm_started_search(
            evaluator(kernel), kernel.space, GeneticAlgorithm(population_size=8),
            surrogate=surrogate, nmax=20, spec=_pool(500), seed_evaluations=6,
        )
        seed_preds = [surrogate.predict_one(c) for c in trace.configs()[:6]]
        assert seed_preds == sorted(seed_preds)

    def test_cold_mode_is_plain_technique(self, kernel):
        trace = warm_started_search(
            evaluator(kernel), kernel.space, SimulatedAnnealing(),
            surrogate=None, nmax=15, seed_evaluations=0,
        )
        assert trace.n_evaluations == 15
        assert trace.algorithm == "anneal"

    def test_warm_beats_cold_early(self, kernel, surrogate):
        """With a correlated source, the warm GA's early best should
        beat the cold GA's early best."""
        warm = warm_started_search(
            evaluator(kernel), kernel.space,
            GeneticAlgorithm(population_size=10, seed=1),
            surrogate=surrogate, nmax=20, seed_evaluations=10,
            spec=_pool(2000),
        )
        cold = warm_started_search(
            evaluator(kernel), kernel.space,
            GeneticAlgorithm(population_size=10, seed=1),
            surrogate=None, nmax=20, seed_evaluations=0,
        )
        warm_early = min(r.runtime for r in warm.records[:10])
        cold_early = min(r.runtime for r in cold.records[:10])
        assert warm_early <= cold_early

    def test_warm_without_surrogate_rejected(self, kernel):
        with pytest.raises(SearchError):
            warm_started_search(
                evaluator(kernel), kernel.space, SimulatedAnnealing(),
                surrogate=None, seed_evaluations=5,
            )

    def test_invalid_budgets(self, kernel, surrogate):
        with pytest.raises(SearchError):
            warm_started_search(
                evaluator(kernel), kernel.space, SimulatedAnnealing(),
                surrogate=surrogate, nmax=0,
            )
        with pytest.raises(SearchError):
            warm_started_search(
                evaluator(kernel), kernel.space, SimulatedAnnealing(),
                surrogate=surrogate, seed_evaluations=-1,
            )
