"""Tests for ridge, kNN, boosting baselines and metrics."""

import numpy as np
import pytest

from repro.errors import ModelError, NotFittedError
from repro.ml import (
    GradientBoostingRegressor,
    KNeighborsRegressor,
    RidgeRegressor,
)


def rmse(y_true, y_pred) -> float:
    return float(np.sqrt(np.mean((np.asarray(y_true) - np.asarray(y_pred)) ** 2)))


def r2_score(y_true, y_pred) -> float:
    """Coefficient of determination; 1 for a constant truth perfectly
    predicted, 0 for any other prediction of a constant truth."""
    yt = np.asarray(y_true, dtype=float).ravel()
    yp = np.asarray(y_pred, dtype=float).ravel()
    if yt.shape != yp.shape:
        raise ValueError(f"length mismatch: {yt.shape[0]} vs {yp.shape[0]}")
    if yt.size == 0:
        raise ValueError("empty input")
    ss_res = float(np.sum((yt - yp) ** 2))
    ss_tot = float(np.sum((yt - yt.mean()) ** 2))
    if ss_tot == 0.0:
        return 1.0 if ss_res == 0.0 else 0.0
    return 1.0 - ss_res / ss_tot


def linear_data(n=120, seed=0, noise=0.01):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 3))
    y = 2.0 * X[:, 0] - 1.0 * X[:, 2] + 0.5 + rng.normal(scale=noise, size=n)
    return X, y


class TestRidge:
    def test_recovers_linear_relationship(self):
        X, y = linear_data()
        model = RidgeRegressor(alpha=1e-8).fit(X, y)
        Xt, yt = linear_data(seed=1)
        assert rmse(yt, model.predict(Xt)) < 0.05

    def test_alpha_zero_is_ols(self):
        X, y = linear_data(noise=0.0)
        model = RidgeRegressor(alpha=0.0).fit(X, y)
        np.testing.assert_allclose(model.predict(X), y, atol=1e-8)

    def test_heavy_regularization_shrinks_coefficients(self):
        X, y = linear_data()
        loose = RidgeRegressor(alpha=1e-6).fit(X, y)
        tight = RidgeRegressor(alpha=1e6).fit(X, y)
        assert np.abs(tight._coef).sum() < np.abs(loose._coef).sum()

    def test_constant_feature_handled(self):
        X, y = linear_data()
        X = np.hstack([X, np.ones((len(y), 1))])
        model = RidgeRegressor().fit(X, y)  # zero-variance column must not divide by 0
        assert np.all(np.isfinite(model.predict(X)))

    def test_negative_alpha_rejected(self):
        with pytest.raises(ModelError):
            RidgeRegressor(alpha=-1.0)

    def test_unfitted(self):
        with pytest.raises(NotFittedError):
            RidgeRegressor().predict([[1.0, 2.0, 3.0]])


class TestKnn:
    def test_exact_on_training_points_k1(self):
        X, y = linear_data(n=40)
        model = KNeighborsRegressor(n_neighbors=1).fit(X, y)
        np.testing.assert_allclose(model.predict(X), y, atol=1e-12)

    def test_k_larger_than_train_rejected(self):
        with pytest.raises(ModelError):
            KNeighborsRegressor(n_neighbors=10).fit([[1.0]] * 5, [1.0] * 5)

    def test_distance_weighting_interpolates(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([0.0, 10.0])
        model = KNeighborsRegressor(n_neighbors=2, weights="distance").fit(X, y)
        pred = model.predict([[0.25]])[0]
        assert 0.0 < pred < 5.0  # closer to the 0-label point

    def test_uniform_weighting_averages(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([0.0, 10.0])
        model = KNeighborsRegressor(n_neighbors=2, weights="uniform").fit(X, y)
        assert model.predict([[0.25]])[0] == pytest.approx(5.0)

    def test_invalid_weights(self):
        with pytest.raises(ModelError):
            KNeighborsRegressor(weights="fancy")

    def test_invalid_k(self):
        with pytest.raises(ModelError):
            KNeighborsRegressor(n_neighbors=0)


class TestBoosting:
    def test_improves_over_rounds(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(size=(250, 3))
        y = np.sin(6 * X[:, 0]) + X[:, 1] ** 2
        early, late = (
            rmse(y, GradientBoostingRegressor(
                n_estimators=rounds, seed=0
            ).fit(X, y).predict(X))
            for rounds in (5, 150)
        )
        assert late < 0.5 * early

    def test_invalid_hyperparameters(self):
        with pytest.raises(ModelError):
            GradientBoostingRegressor(n_estimators=0)


class TestMetrics:
    def test_perfect_prediction(self):
        y = [1.0, 2.0, 3.0]
        assert r2_score(y, y) == 1.0

    def test_mean_prediction_r2_zero(self):
        y = np.array([1.0, 2.0, 3.0])
        assert r2_score(y, np.full(3, 2.0)) == pytest.approx(0.0)

    def test_constant_truth_conventions(self):
        assert r2_score([2.0, 2.0], [2.0, 2.0]) == 1.0
        assert r2_score([2.0, 2.0], [3.0, 1.0]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            r2_score([1.0], [1.0, 2.0])

    def test_empty(self):
        with pytest.raises(ValueError):
            r2_score([], [])
