"""Common regressor interface and input validation."""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.errors import ModelError, NotFittedError

__all__ = ["Regressor", "check_Xy", "check_X"]


def check_Xy(X, y) -> tuple[np.ndarray, np.ndarray]:
    """Validate and coerce a training set to float arrays."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if X.ndim != 2:
        raise ModelError(f"X must be 2-D, got shape {X.shape}")
    if X.shape[0] != y.shape[0]:
        raise ModelError(f"X has {X.shape[0]} rows but y has {y.shape[0]} values")
    if X.shape[0] == 0:
        raise ModelError("cannot fit on an empty training set")
    if not np.all(np.isfinite(X)) or not np.all(np.isfinite(y)):
        raise ModelError("training data contains NaN or infinity")
    return X, y


def check_X(X, n_features: int) -> np.ndarray:
    """Validate and coerce a prediction input."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(1, -1)
    if X.ndim != 2 or X.shape[1] != n_features:
        raise ModelError(f"expected shape (*, {n_features}), got {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ModelError("prediction input contains NaN or infinity")
    return X


class Regressor(ABC):
    """Minimal fit/predict interface shared by all surrogate learners."""

    _n_features: int | None = None

    @abstractmethod
    def fit(self, X, y) -> "Regressor":
        """Fit on training matrix ``X`` (n, p) and targets ``y`` (n,)."""

    @abstractmethod
    def predict(self, X) -> np.ndarray:
        """Predicted targets for rows of ``X``."""

    def _require_fitted(self) -> int:
        if self._n_features is None:
            raise NotFittedError(f"{type(self).__name__} has not been fitted")
        return self._n_features
