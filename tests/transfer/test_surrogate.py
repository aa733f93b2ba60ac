"""Tests for the surrogate model wrapper."""

import numpy as np
import pytest

from repro.errors import ModelError, NotFittedError
from repro.kernels import get_kernel
from repro.machines import SANDYBRIDGE
from repro.ml import RidgeRegressor
from repro.orio.evaluator import OrioEvaluator
from repro.transfer.surrogate import Surrogate
from repro.utils.rng import spawn_rng
from repro.utils.stats import spearman


@pytest.fixture(scope="module")
def training():
    kernel = get_kernel("lu", n=128)
    ev = OrioEvaluator(kernel, SANDYBRIDGE)
    rng = spawn_rng("surrogate-test", 0)
    configs = kernel.space.sample(rng, 80)
    return kernel, [(c, ev.measure(c).runtime_seconds) for c in configs]


class TestFitting:
    def test_predictions_positive(self, training):
        kernel, data = training
        s = Surrogate(kernel.space).fit(data)
        rng = spawn_rng("surrogate-test", 1)
        preds = s.predict(kernel.space.sample(rng, 50))
        assert np.all(preds > 0)

    def test_rank_quality_on_held_out(self, training):
        kernel, data = training
        s = Surrogate(kernel.space).fit(data[:60])
        held = data[60:]
        preds = s.predict([c for c, _ in held])
        truth = [y for _, y in held]
        assert spearman(preds, truth) > 0.4  # model captures the landscape

    def test_unfitted_predict_raises(self, training):
        kernel, _ = training
        with pytest.raises(NotFittedError):
            Surrogate(kernel.space).predict([kernel.space.default()])

    def test_empty_training_rejected(self, training):
        kernel, _ = training
        with pytest.raises(ModelError):
            Surrogate(kernel.space).fit([])

    def test_custom_learner(self, training):
        kernel, data = training
        s = Surrogate(kernel.space, learner=RidgeRegressor()).fit(data)
        assert s.is_fitted

    def test_log_target_rejects_nonpositive(self, training):
        kernel, data = training
        bad = [(data[0][0], 0.0)] + data[1:]
        with pytest.raises(ModelError):
            Surrogate(kernel.space).fit(bad)

    def test_linear_target_allows_any(self, training):
        kernel, data = training
        bad = [(data[0][0], -1.0)] + list(data[1:])
        Surrogate(kernel.space, log_target=False).fit(bad)


class TestOverheadModel:
    def test_fit_seconds_grow_with_data(self, training):
        kernel, data = training
        small = Surrogate(kernel.space).fit(data[:20]).fit_seconds
        large = Surrogate(kernel.space).fit(data).fit_seconds
        assert large > small

    def test_predict_seconds_grow_with_n(self, training):
        kernel, _ = training
        s = Surrogate(kernel.space)
        assert s.predict_seconds(10_000) > s.predict_seconds(100)

    def test_predict_seconds_negative_rejected(self, training):
        kernel, _ = training
        with pytest.raises(ModelError):
            Surrogate(kernel.space).predict_seconds(-1)

    def test_predict_empty(self, training):
        kernel, data = training
        s = Surrogate(kernel.space).fit(data)
        assert s.predict([]).shape == (0,)


class TestCacheStats:
    def test_stats_track_repeated_prediction(self, training):
        kernel, data = training
        s = Surrogate(kernel.space).fit(data)
        pool_a = [c for c, _ in data[:30]]
        pool_b = [c for c, _ in data[30:60]]
        before = s.cache_stats()
        # Alternate pools so the surrogate's one-slot predict memo cannot
        # short-circuit the repeat — the hit must come from the cache.
        s.predict(pool_a)
        s.predict(pool_b)
        s.predict(pool_a)
        after = s.cache_stats()
        assert after["hits"] >= before["hits"] + 1
        assert after["rows"] <= after["max_rows"]
        for key in ("pools", "max_pools", "misses", "row_evictions",
                    "pool_evictions"):
            assert key in after


class TestPredictIndices:
    def test_matches_predict_by_configuration(self, training):
        kernel, data = training
        s = Surrogate(kernel.space).fit(data)
        configs = kernel.space.sample(spawn_rng("surrogate-test", 7), 60)
        by_config = s.predict(configs)
        by_index = s.predict_indices([c.index for c in configs])
        np.testing.assert_array_equal(by_index, by_config)

    def test_memo_shared_with_predict(self, training):
        kernel, data = training
        s = Surrogate(kernel.space).fit(data)
        configs = kernel.space.sample(spawn_rng("surrogate-test", 8), 40)
        by_index = s.predict_indices([c.index for c in configs])
        assert s.predict(configs) is by_index  # same memo entry

    def test_requires_fit(self, training):
        kernel, _ = training
        with pytest.raises(NotFittedError):
            Surrogate(kernel.space).predict_indices([0, 1])

    def test_empty(self, training):
        kernel, data = training
        s = Surrogate(kernel.space).fit(data)
        assert len(s.predict_indices([])) == 0
