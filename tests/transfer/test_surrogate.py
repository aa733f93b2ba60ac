"""Tests for the surrogate model wrapper."""

import numpy as np
import pytest

from repro.errors import ModelError, NotFittedError
from repro.kernels import get_kernel
from repro.machines import SANDYBRIDGE
from repro.ml import RandomForestRegressor, RidgeRegressor
from repro.orio.evaluator import OrioEvaluator
from repro.perf.simclock import SimClock
from repro.reliability import CheckpointManager
from repro.search.biasing import biased_search
from repro.spec import PoolSpec, TunerSpec
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
        assert np.isfinite(s.predict([c for c, _ in data])).all()

    def test_log_target_rejects_nonpositive(self, training):
        kernel, data = training
        bad = [(data[0][0], 0.0)] + data[1:]
        with pytest.raises(ModelError):
            Surrogate(kernel.space).fit(bad)


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


class CountingLearner:
    """A forest that counts its ``predict`` calls."""

    def __init__(self):
        self.inner = RandomForestRegressor(n_estimators=16, seed=0)
        self.predict_calls = 0

    def fit(self, X, y):
        self.inner.fit(X, y)
        return self

    def predict(self, X):
        self.predict_calls += 1
        return self.inner.predict(X)


class TestPredictMemo:
    def test_resumed_biased_search_scores_its_pool_once(self, training, tmp_path):
        """A cut RSb resumed on the same surrogate and checkpoint
        re-ranks the same pool: the memo serves it, so the learner
        scores the pool once across both runs."""
        kernel, data = training
        learner = CountingLearner()
        s = Surrogate(kernel.space, learner=learner).fit(data)
        manager = CheckpointManager(tmp_path / "rsb.json", every=4)
        spec = TunerSpec(pool=PoolSpec(size=300))

        def run(nmax):
            return biased_search(
                OrioEvaluator(kernel, SANDYBRIDGE, clock=SimClock()),
                kernel.space, s, nmax=nmax, spec=spec, checkpoint=manager,
            )

        assert run(8).n_evaluations == 8
        assert learner.predict_calls == 1
        assert run(16).n_evaluations == 16
        assert learner.predict_calls == 1

    def test_refit_invalidates_the_memo(self, training):
        kernel, data = training
        learner = CountingLearner()
        s = Surrogate(kernel.space, learner=learner).fit(data)
        pool = [c for c, _ in data[:30]]
        first = s.predict(pool)
        assert s.predict(pool) is first
        s.fit(data[:60])
        s.predict(pool)
        assert learner.predict_calls == 2


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
