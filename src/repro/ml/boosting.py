"""Gradient-boosted regression trees (squared loss).

An extension beyond the paper (Section VII suggests testing other
learners): stage-wise fitting of shallow CART trees to the residuals,
shrunk by a learning rate.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError
from repro.ml.base import Regressor, check_X, check_Xy
from repro.ml.forest import PackedTrees
from repro.ml.tree import DecisionTreeRegressor
from repro.utils.rng import RngFactory

__all__ = ["GradientBoostingRegressor"]

#: Shrinkage applied to every stage's tree.
LEARNING_RATE = 0.05


class GradientBoostingRegressor(Regressor):
    """L2 gradient boosting over every training row."""

    def __init__(
        self,
        n_estimators: int = 200,
        max_depth: int = 3,
        min_samples_leaf: int = 2,
        seed: int = 0,
    ) -> None:
        if n_estimators < 1:
            raise ModelError(f"n_estimators must be >= 1, got {n_estimators}")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.seed = seed
        self.trees: list[DecisionTreeRegressor] = []
        self._packed: PackedTrees | None = None
        self._base: float = 0.0

    def fit(self, X, y) -> "GradientBoostingRegressor":
        X, y = check_Xy(X, y)
        n, p = X.shape
        factory = RngFactory("gbrt", seed=self.seed)
        self._base = float(y.mean())
        pred = np.full(n, self._base)
        self.trees = []
        for t in range(self.n_estimators):
            residual = y - pred
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                rng=factory.child("split", t),
            )
            tree._fit_arrays(X, residual)
            self.trees.append(tree)
            pred += LEARNING_RATE * tree.predict(X)
        self._n_features = p
        self._packed = PackedTrees(self.trees)
        return self

    def _tree_values(self, X: np.ndarray) -> np.ndarray:
        if self._packed is None:
            self._packed = PackedTrees(self.trees)
        return self._packed.tree_values(X)

    def predict(self, X) -> np.ndarray:
        p = self._require_fitted()
        X = check_X(X, p)
        vals = self._tree_values(X)
        # Stage-by-stage accumulation in round order — the exact
        # addition sequence of the per-tree loop, so packed prediction
        # stays bit-identical.
        pred = np.full(X.shape[0], self._base)
        for t in range(vals.shape[0]):
            pred += LEARNING_RATE * vals[t]
        return pred
