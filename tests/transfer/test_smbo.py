"""Tests for sequential model-based optimization with transfer."""

import math

import pytest

from repro.errors import SearchError, SpecError
from repro.kernels import get_kernel
from repro.machines import SANDYBRIDGE, WESTMERE
from repro.orio.evaluator import OrioEvaluator
from repro.perf.simclock import SimClock
from repro.reliability import (
    FaultSpec,
    FaultyEvaluator,
    ResilientEvaluator,
    RetryPolicy,
)
from repro.search import SharedStream, random_search
from repro.spec import SMBOSpec, TunerSpec
from repro.transfer.smbo import smbo_search
from repro.transfer.surrogate import Surrogate


def _smbo(**knobs):
    """The default spec with ``knobs`` set on its ``smbo`` sub-spec."""
    return TunerSpec(smbo=SMBOSpec(**knobs))


@pytest.fixture(scope="module")
def kernel():
    # Large enough that the working set exceeds L2 and tiling/unrolling
    # genuinely matter (a 128^2 problem fits in cache and is flat noise).
    return get_kernel("lu", n=1024)


@pytest.fixture(scope="module")
def source(kernel):
    ev = OrioEvaluator(kernel, WESTMERE, clock=SimClock())
    trace = random_search(ev, SharedStream(kernel.space, seed="smbo"), nmax=40)
    data = trace.training_data()
    return data, Surrogate(kernel.space).fit(data)


def evaluator(kernel):
    return OrioEvaluator(kernel, SANDYBRIDGE, clock=SimClock())


class TestSmbo:
    def test_runs_to_budget(self, kernel):
        trace = smbo_search(evaluator(kernel), kernel.space, nmax=20,
                            seed="t1", spec=_smbo(n_initial=6, pool_size=300))
        assert trace.n_evaluations == 20
        assert trace.algorithm == "SMBO-ei"

    def test_no_duplicate_evaluations(self, kernel):
        trace = smbo_search(evaluator(kernel), kernel.space, nmax=25,
                            seed="t2", spec=_smbo(n_initial=5, pool_size=300))
        indices = [c.index for c in trace.configs()]
        assert len(set(indices)) == len(indices)

    def test_beats_random_search(self, kernel):
        rs = random_search(evaluator(kernel),
                           SharedStream(kernel.space, seed="smbo-rs"), nmax=30)
        smbo = smbo_search(evaluator(kernel), kernel.space, nmax=30,
                           seed="t3", spec=_smbo(n_initial=10, pool_size=800))
        assert smbo.best_runtime <= rs.best_runtime * 1.25

    def test_transfer_seeding_improves_early_quality(self, kernel, source):
        _, surrogate = source
        cold = smbo_search(evaluator(kernel), kernel.space, nmax=12,
                           seed="t4", spec=_smbo(n_initial=8, pool_size=500))
        warm = smbo_search(evaluator(kernel), kernel.space, nmax=12,
                           seed="t4", spec=_smbo(n_initial=8, pool_size=500),
                           source_surrogate=surrogate)
        import numpy as np

        cold_early = float(np.mean([r.runtime for r in cold.records[:8]]))
        warm_early = float(np.mean([r.runtime for r in warm.records[:8]]))
        assert warm_early <= cold_early * 1.05  # seeded design is not worse
        assert "transfer" in warm.algorithm

    def test_source_data_blending(self, kernel, source):
        data, surrogate = source
        trace = smbo_search(evaluator(kernel), kernel.space, nmax=15,
                            seed="t5", spec=_smbo(n_initial=5, pool_size=300),
                            source_surrogate=surrogate, source_data=data)
        assert trace.n_evaluations == 15

    @pytest.mark.parametrize("acq", ["ei", "lcb", "mean"])
    def test_acquisitions(self, kernel, acq):
        trace = smbo_search(evaluator(kernel), kernel.space, nmax=10,
                            seed="t6",
                            spec=_smbo(n_initial=4, pool_size=200,
                                       acquisition=acq))
        assert trace.n_evaluations == 10

    def test_validation(self, kernel):
        with pytest.raises(SearchError, match="nmax must be >= 1"):
            smbo_search(evaluator(kernel), kernel.space, nmax=0)
        with pytest.raises(SearchError):
            smbo_search(evaluator(kernel), kernel.space, nmax=10,
                        spec=_smbo(n_initial=20))
        with pytest.raises(SpecError):
            _smbo(acquisition="ucb")
        with pytest.raises(SpecError):
            _smbo(refit_every=0)

    def test_budget_exhaustion(self, kernel):
        ev = OrioEvaluator(kernel, SANDYBRIDGE, clock=SimClock(3.0))
        trace = smbo_search(ev, kernel.space, nmax=50, seed="t7",
                            spec=_smbo(n_initial=5, pool_size=200))
        assert trace.exhausted_budget


class TestSmboOutcomes:
    """Budget walls inside a refit and degraded evaluations end or
    continue an SMBO run like any other search."""

    @pytest.fixture(scope="class")
    def small(self):
        return get_kernel("lu", n=128)

    def _run(self, small, evaluator):
        return smbo_search(evaluator, small.space, nmax=12, seed=0,
                           spec=_smbo(n_initial=3, pool_size=200))

    def test_budget_wall_in_refit_returns_partial_trace(self, small):
        reference = self._run(small, OrioEvaluator(small, SANDYBRIDGE, clock=SimClock()))
        # 0.2 s after the fifth record the next refit (0.5 s + 2 ms per
        # observation) cannot be paid: the wall lands inside the refit.
        budget = reference.records[4].elapsed + 0.2
        ev = OrioEvaluator(small, SANDYBRIDGE, clock=SimClock(budget))
        trace = self._run(small, ev)
        assert trace.exhausted_budget
        assert trace.n_evaluations == 5
        assert trace.total_elapsed == ev.clock.now == reference.records[4].elapsed
        assert [r.config.index for r in trace.records] == [
            r.config.index for r in reference.records[:5]
        ]

    def test_degraded_evaluations_are_recorded_failed(self, small):
        ev = ResilientEvaluator(
            FaultyEvaluator(
                OrioEvaluator(small, SANDYBRIDGE, clock=SimClock()),
                FaultSpec.uniform(0.2, seed="p"),
            ),
            retry=RetryPolicy(max_retries=1),
        )
        trace = self._run(small, ev)
        assert trace.n_evaluations == 12
        failed = [r for r in trace.records if r.failed]
        assert failed and len(failed) == ev.stats.degraded
        assert math.isfinite(trace.best_runtime)
