"""Tests for RS, RSp, RSb, RSpf, RSbf (Algorithms 1 & 2 + controls)."""

import pytest

from repro.errors import SearchError, SpecError
from repro.kernels import get_kernel
from repro.machines import SANDYBRIDGE, WESTMERE
from repro.orio.evaluator import OrioEvaluator
from repro.perf.simclock import SimClock
from repro.search import (
    SharedStream,
    biased_search,
    model_free_biased_search,
    model_free_pruned_search,
    pruned_search,
    random_search,
)
from repro.spec import GateSpec, PoolSpec, TunerSpec
from repro.transfer.surrogate import Surrogate


def _pool(size):
    """The default spec with a pool of ``size`` configurations."""
    return TunerSpec(pool=PoolSpec(size=size))


@pytest.fixture(scope="module")
def kernel():
    return get_kernel("lu", n=128)


@pytest.fixture(scope="module")
def source_data(kernel):
    ev = OrioEvaluator(kernel, WESTMERE, clock=SimClock())
    trace = random_search(ev, SharedStream(kernel.space, seed="t"), nmax=60)
    return trace.training_data()


@pytest.fixture(scope="module")
def surrogate(kernel, source_data):
    return Surrogate(kernel.space).fit(source_data)


def target_evaluator(kernel, budget=None):
    return OrioEvaluator(kernel, SANDYBRIDGE, clock=SimClock(budget))


class TestRandomSearch:
    def test_evaluates_nmax(self, kernel):
        trace = random_search(target_evaluator(kernel), SharedStream(kernel.space, seed="a"), nmax=20)
        assert trace.n_evaluations == 20
        assert trace.algorithm == "RS"

    def test_follows_stream_order(self, kernel):
        stream = SharedStream(kernel.space, seed="a")
        expected = stream.prefix(10)
        trace = random_search(
            target_evaluator(kernel), SharedStream(kernel.space, seed="a"), nmax=10
        )
        assert trace.configs() == expected

    def test_elapsed_monotone(self, kernel):
        trace = random_search(target_evaluator(kernel), SharedStream(kernel.space, seed="a"), nmax=15)
        elapsed = [r.elapsed for r in trace.records]
        assert elapsed == sorted(elapsed)
        assert elapsed[0] > 0

    def test_budget_exhaustion_flag(self, kernel):
        trace = random_search(
            target_evaluator(kernel, budget=0.5),
            SharedStream(kernel.space, seed="a"),
            nmax=50,
        )
        assert trace.exhausted_budget
        assert trace.n_evaluations < 50

    def test_invalid_nmax(self, kernel):
        with pytest.raises(SearchError):
            random_search(target_evaluator(kernel), SharedStream(kernel.space), nmax=0)


class TestPrunedSearch:
    def test_skips_predicted_poor(self, kernel, surrogate):
        trace = pruned_search(
            target_evaluator(kernel),
            SharedStream(kernel.space, seed="a"),
            surrogate,
            nmax=20,
            spec=TunerSpec(
                pool=PoolSpec(size=500), gate=GateSpec(delta_percent=20.0)
            ),
        )
        assert trace.n_evaluations <= 20
        assert trace.metadata["stream_positions"] >= trace.n_evaluations
        total_skipped = sum(r.skipped_before for r in trace.records)
        assert total_skipped > 0  # something was pruned

    def test_cutoff_recorded(self, kernel, surrogate):
        trace = pruned_search(
            target_evaluator(kernel),
            SharedStream(kernel.space, seed="a"),
            surrogate,
            nmax=10,
            spec=_pool(200),
        )
        assert trace.metadata["cutoff"] > 0

    def test_evaluated_subset_of_rs_stream(self, kernel, surrogate):
        rs = random_search(
            target_evaluator(kernel), SharedStream(kernel.space, seed="a"), nmax=40
        )
        rsp = pruned_search(
            target_evaluator(kernel),
            SharedStream(kernel.space, seed="a"),
            surrogate,
            nmax=10,
            spec=_pool(200),
        )
        # CRN: RSp's evaluations come from the same stream (a prefix of
        # positions), so every RSp config within the RS prefix matches.
        rs_set = {c.index for c in rs.configs()}
        overlap = [c for c in rsp.configs() if c.index in rs_set]
        assert len(overlap) >= 1

    def test_invalid_delta(self):
        with pytest.raises(SpecError):
            TunerSpec().with_value("gate.delta_percent", 0.0)

    def test_tiny_pool_rejected(self):
        with pytest.raises(SpecError):
            TunerSpec().with_value("pool.size", 5)


class TestBiasedSearch:
    def test_evaluates_in_predicted_order(self, kernel, surrogate):
        trace = biased_search(
            target_evaluator(kernel), kernel.space, surrogate, nmax=15,
            spec=_pool(300),
        )
        assert trace.n_evaluations == 15
        preds = [surrogate.predict_one(c) for c in trace.configs()]
        assert preds == sorted(preds)

    def test_biased_beats_random_on_correlated_machines(self, kernel, surrogate):
        rs = random_search(
            target_evaluator(kernel), SharedStream(kernel.space, seed="a"), nmax=30
        )
        rsb = biased_search(
            target_evaluator(kernel), kernel.space, surrogate, nmax=30,
            spec=_pool(2000),
        )
        # Intel pair: the model's early picks should be strong.
        assert rsb.records[0].runtime < rs.runtimes().mean()

    def test_model_overhead_charged(self, kernel, surrogate):
        ev = target_evaluator(kernel)
        biased_search(ev, kernel.space, surrogate, nmax=5, spec=_pool(200))
        # Clock includes fit + pool prediction + 5 evaluations.
        assert ev.clock.now > surrogate.fit_seconds


class TestModelFree:
    def test_rsbf_sorted_replay(self, kernel, source_data):
        trace = model_free_biased_search(target_evaluator(kernel), source_data, nmax=25)
        source_sorted = sorted(source_data, key=lambda p: p[1])
        assert trace.configs() == [c for c, _ in source_sorted[:25]]

    def test_rsbf_restricted_to_source_configs(self, kernel, source_data):
        trace = model_free_biased_search(target_evaluator(kernel), source_data, nmax=100)
        assert trace.n_evaluations == len(source_data)
        source_set = {c.index for c, _ in source_data}
        assert all(c.index in source_set for c in trace.configs())

    def test_rspf_threshold_replay(self, kernel, source_data):
        trace = model_free_pruned_search(
            target_evaluator(kernel), source_data, nmax=100,
            spec=TunerSpec(gate=GateSpec(delta_percent=20.0)),
        )
        cutoff = trace.metadata["cutoff"]
        # Only configs below the cutoff (on the source!) are evaluated.
        source_by_idx = {c.index: y for c, y in source_data}
        assert all(source_by_idx[c.index] < cutoff for c in trace.configs())
        assert trace.n_evaluations <= 0.3 * len(source_data)

    def test_rspf_preserves_source_order(self, kernel, source_data):
        trace = model_free_pruned_search(
            target_evaluator(kernel), source_data, nmax=100
        )
        positions = {c.index: i for i, (c, _) in enumerate(source_data)}
        order = [positions[c.index] for c in trace.configs()]
        assert order == sorted(order)

    def test_empty_training_rejected(self, kernel):
        with pytest.raises(SearchError):
            model_free_biased_search(target_evaluator(kernel), [])
        with pytest.raises(SearchError):
            model_free_pruned_search(target_evaluator(kernel), [])
