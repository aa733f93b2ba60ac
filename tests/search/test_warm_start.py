"""Tests for warm-started heuristic search."""

import pytest

from repro.errors import SearchError
from repro.kernels import get_kernel
from repro.machines import SANDYBRIDGE, WESTMERE
from repro.orio.evaluator import OrioEvaluator
from repro.perf.simclock import SimClock
from repro.reliability import CheckpointManager
from repro.search import SharedStream, random_search
from repro.spec import PoolSpec, TunerSpec
from repro.transfer.surrogate import Surrogate
from repro.tuner import GeneticAlgorithm, SimulatedAnnealing, warm_started_search


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
        seed_preds = list(surrogate.predict(trace.configs()[:6]))
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

    def test_completed_warm_run_restores_verbatim(self, kernel, surrogate,
                                                  tmp_path):
        """A resumed run re-draws its seed pool without charging the
        fit or the scoring again: the restored clock already paid."""
        manager = CheckpointManager(tmp_path / "warm.ckpt")

        def run(ev):
            return warm_started_search(
                ev, kernel.space, GeneticAlgorithm(population_size=8, seed=1),
                surrogate=surrogate, nmax=8, spec=_pool(500),
                seed_evaluations=4, checkpoint=manager,
            )

        first, second = evaluator(kernel), evaluator(kernel)
        trace1 = run(first)
        trace2 = run(second)
        assert second.n_evaluations == 0  # nothing re-measured
        assert [r.config.index for r in trace2.records] == [
            r.config.index for r in trace1.records
        ]
        assert second.clock.now == first.clock.now

    def test_resume_feeds_each_measured_seed_back_once(self, kernel, surrogate,
                                                       tmp_path):
        manager = CheckpointManager(tmp_path / "warm.ckpt", every=1)

        fed = []

        class Counting(GeneticAlgorithm):
            def feedback(self, config, value):
                fed.append(config.index)
                super().feedback(config, value)

        def run(nmax):
            fed.clear()
            warm_started_search(
                evaluator(kernel), kernel.space,
                Counting(population_size=8, seed=1), surrogate=surrogate,
                nmax=nmax, spec=_pool(500), seed_evaluations=4,
                checkpoint=manager,
            )
            return list(fed)

        seeds = run(4)
        resumed = run(6)
        # The restored database replays the seeds; the seed phase then
        # skips them instead of feeding them back a second time.
        assert resumed[:4] == seeds
        assert resumed[4:8] != seeds
        assert len(resumed) >= 6

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
