"""Tests for the random forest surrogate."""

import numpy as np
import pytest

from repro.errors import ModelError, NotFittedError
from repro.ml.forest import RandomForestRegressor


def friedman_like(n=300, seed=0):
    """Smooth nonlinear target with interactions (surrogate-like)."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 1, size=(n, 5))
    y = (
        10 * np.sin(np.pi * X[:, 0] * X[:, 1])
        + 20 * (X[:, 2] - 0.5) ** 2
        + 10 * X[:, 3]
        + rng.normal(scale=0.5, size=n)
    )
    return X, y


class TestFit:
    def test_beats_mean_predictor(self):
        X, y = friedman_like()
        Xt, yt = friedman_like(seed=1)
        rf = RandomForestRegressor(n_estimators=40, seed=0).fit(X, y)
        sse = np.sum((yt - rf.predict(Xt)) ** 2)
        assert 1.0 - sse / np.sum((yt - yt.mean()) ** 2) > 0.7  # R²

    def test_deterministic_given_seed(self):
        X, y = friedman_like(n=100)
        a = RandomForestRegressor(n_estimators=10, seed=5).fit(X, y).predict(X)
        b = RandomForestRegressor(n_estimators=10, seed=5).fit(X, y).predict(X)
        np.testing.assert_array_equal(a, b)

    def test_seed_matters(self):
        X, y = friedman_like(n=100)
        a = RandomForestRegressor(n_estimators=10, seed=1).fit(X, y).predict(X)
        b = RandomForestRegressor(n_estimators=10, seed=2).fit(X, y).predict(X)
        assert not np.array_equal(a, b)

    def test_prediction_is_tree_average(self):
        X, y = friedman_like(n=80)
        rf = RandomForestRegressor(n_estimators=7, seed=0).fit(X, y)
        manual = np.mean([t.predict(X) for t in rf.trees], axis=0)
        np.testing.assert_allclose(rf.predict(X), manual)

    def test_invalid_n_estimators(self):
        with pytest.raises(ModelError):
            RandomForestRegressor(n_estimators=0)

    def test_unfitted_predict_raises(self):
        with pytest.raises(NotFittedError):
            RandomForestRegressor().predict([[1.0]])

    def test_small_training_set(self):
        # The paper trains on nmax=100 points; make sure tiny sets work too.
        X = np.arange(10, dtype=float).reshape(-1, 1)
        y = (X[:, 0] > 4).astype(float)
        rf = RandomForestRegressor(n_estimators=30, min_samples_split=2,
                                   min_samples_leaf=1, seed=0).fit(X, y)
        assert rf.predict([[9.0]])[0] > rf.predict([[0.0]])[0]
