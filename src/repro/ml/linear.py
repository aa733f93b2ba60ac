"""Ridge regression — a linear baseline for the surrogate ablation.

The paper argues recursive partitioning suits performance surrogates
because runtime responds nonlinearly to tiling/unrolling; a linear
model is the natural straw man to quantify that claim.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError
from repro.ml.base import Regressor, check_X, check_Xy

__all__ = ["RidgeRegressor"]


class RidgeRegressor(Regressor):
    """L2-regularized least squares with feature standardization."""

    def __init__(self, alpha: float = 1.0) -> None:
        if alpha < 0:
            raise ModelError(f"alpha must be >= 0, got {alpha}")
        self.alpha = alpha
        self._coef: np.ndarray | None = None
        self._intercept: float = 0.0
        self._mean: np.ndarray | None = None
        self._scale: np.ndarray | None = None

    def fit(self, X, y) -> "RidgeRegressor":
        X, y = check_Xy(X, y)
        self._mean = X.mean(axis=0)
        scale = X.std(axis=0)
        scale[scale == 0.0] = 1.0
        self._scale = scale
        Z = (X - self._mean) / scale
        y_mean = y.mean()
        yc = y - y_mean
        # Solve (Z'Z + alpha I) w = Z'y via a stable lstsq on the
        # augmented system [Z; sqrt(alpha) I] w = [yc; 0].
        p = Z.shape[1]
        if self.alpha > 0:
            aug = np.vstack([Z, np.sqrt(self.alpha) * np.eye(p)])
            rhs = np.concatenate([yc, np.zeros(p)])
        else:
            aug, rhs = Z, yc
        coef, *_ = np.linalg.lstsq(aug, rhs, rcond=None)
        self._coef = coef
        self._intercept = float(y_mean)
        self._n_features = p
        return self

    def predict(self, X) -> np.ndarray:
        p = self._require_fitted()
        X = check_X(X, p)
        Z = (X - self._mean) / self._scale
        return Z @ self._coef + self._intercept
