"""Random forest regression (Breiman 2001) — the paper's surrogate model.

Each tree is grown on a bootstrap resample of the training set with a
random feature subset considered at every split; the forest predicts
the mean of its trees.  The tuner only ever reads predictions: RSp
compares them against a quantile cutoff and RSb ranks a pool by them,
so a fit computes the trees and nothing else.

Prediction runs through a *packed* representation: every tree's flat
node arrays are concatenated into one offset-indexed structure, so
scoring the 10k-configuration pool is a single vectorized traversal of
all trees at once instead of a Python loop of ``n_estimators``
``tree.predict`` calls.  The packed path routes each row through
exactly the same comparisons as the per-tree path, so its outputs are
bit-identical.  The traversal is the only compiled step (see
:mod:`repro.ml._native`); the mean and std over the per-tree values are
NumPy reductions, so a prediction does not depend on whether the kernel
compiled.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError
from repro.ml import _native
from repro.ml.base import Regressor, check_X, check_Xy
from repro.ml.tree import DecisionTreeRegressor
from repro.utils.rng import RngFactory

__all__ = ["PackedTrees", "RandomForestRegressor"]


class PackedTrees:
    """Offset-indexed concatenation of an ensemble's flat node arrays.

    Child pointers are rebased into the concatenated index space, so a
    single (tree, row) cursor array can walk every tree of the ensemble
    simultaneously.  Traversal decisions are the same
    ``x[feature] <= threshold`` comparisons each tree's own ``apply``
    performs, so per-tree values read from the packed arrays are
    bit-identical to ``tree.predict``.
    """

    __slots__ = ("feature", "threshold", "left", "right", "value", "roots")

    def __init__(self, trees: list[DecisionTreeRegressor]) -> None:
        if not trees:
            raise ModelError("cannot pack an empty ensemble")
        sizes = np.array([t.nodes.n_nodes for t in trees])
        offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        self.feature = np.concatenate([t.nodes.feature for t in trees])
        self.threshold = np.concatenate([t.nodes.threshold for t in trees])
        self.value = np.concatenate([t.nodes.value for t in trees])
        # Rebase child ids; leaves keep a self-loop-free sentinel as-is.
        self.left = np.concatenate(
            [t.nodes.left + off for t, off in zip(trees, offsets)]
        )
        self.right = np.concatenate(
            [t.nodes.right + off for t, off in zip(trees, offsets)]
        )
        self.roots = offsets

    @property
    def n_trees(self) -> int:
        return len(self.roots)

    def tree_values(self, X: np.ndarray) -> np.ndarray:
        """Per-tree predictions, shape ``(n_trees, n_rows)``.

        Uses the compiled traversal kernel when the host has a C
        compiler (bit-identical — same comparisons, same leaf values),
        otherwise a NumPy traversal with a shrinking active set: each
        step advances every (tree, row) cursor still at an internal
        node, dropping cursors as they reach leaves.
        """
        native = _native.tree_values(
            self.feature, self.threshold, self.left, self.right,
            self.value, self.roots, X,
        )
        if native is not None:
            return native
        # NumPy fallback: per-tree depth-first row partitioning.  Each
        # internal node splits its surviving row set with one comparison
        # gather, so work is O(rows reaching the node) instead of the
        # per-level full-cursor updates of the historical traversal —
        # about 3x faster on a 10k-row pool, and trivially bit-identical
        # (the leaf values are copied, not computed).
        n_trees = len(self.roots)
        n = X.shape[0]
        out = np.empty((n_trees, n))
        feature, threshold = self.feature, self.threshold
        left, right, value = self.left, self.right, self.value
        # Column-major copy of the pool: each node compares one feature
        # across its surviving rows, and a contiguous column turns that
        # gather into a flat 1-D take instead of a strided 2-D fancy
        # index.  Values are copied, not computed, so the layout cannot
        # affect the result.
        cols = np.ascontiguousarray(X.T)
        all_rows = np.arange(n)
        for t in range(n_trees):
            row_out = out[t]
            stack = [(int(self.roots[t]), all_rows)]
            while stack:
                node, rows = stack.pop()
                f = feature[node]
                if f < 0:
                    row_out[rows] = value[node]
                    continue
                go_left = cols[f].take(rows) <= threshold[node]
                stack.append((int(left[node]), rows[go_left]))
                stack.append((int(right[node]), rows[~go_left]))
        return out


class RandomForestRegressor(Regressor):
    """Bagged ensemble of CART trees.

    Parameters
    ----------
    n_estimators:
        Number of trees.
    max_features:
        Per-split feature subset (default ``"third"``, the classic
        regression-forest choice of p/3).
    max_depth, min_samples_split, min_samples_leaf:
        Passed through to each tree.
    seed:
        Root seed; tree ``i`` draws from an independent child stream,
        so results do not depend on construction order.
    """

    def __init__(
        self,
        n_estimators: int = 64,
        max_features: int | float | str | None = "third",
        max_depth: int | None = None,
        min_samples_split: int = 5,
        min_samples_leaf: int = 2,
        seed: int = 0,
    ) -> None:
        if n_estimators < 1:
            raise ModelError(f"n_estimators must be >= 1, got {n_estimators}")
        self.n_estimators = n_estimators
        self.max_features = max_features
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.seed = seed
        self.trees: list[DecisionTreeRegressor] = []
        self._packed: PackedTrees | None = None

    @classmethod
    def from_spec(cls, spec=None) -> "RandomForestRegressor":
        """Build a forest from a :class:`repro.spec.ForestSpec`.

        The single construction path for every forest the tuner builds
        (surrogate and SMBO refit alike), so hyperparameter defaults
        live in one place.
        """
        from repro.spec import ForestSpec

        if spec is None:
            spec = ForestSpec()
        return cls(
            n_estimators=spec.n_estimators,
            max_features=spec.max_features,
            max_depth=spec.max_depth,
            min_samples_split=spec.min_samples_split,
            min_samples_leaf=spec.min_samples_leaf,
            seed=spec.seed,
        )

    def fit(self, X, y) -> "RandomForestRegressor":
        X, y = check_Xy(X, y)
        n, p = X.shape
        self.trees = self._fit_serial(X, y, n)
        self._packed = PackedTrees(self.trees)
        self._n_features = p
        return self

    def _fit_serial(
        self, X: np.ndarray, y: np.ndarray, n: int
    ) -> list[DecisionTreeRegressor]:
        """Serial growth with the per-tree root argsorts batched into a
        single (T, n, p) stable sort — the forest-level half of the
        presorted split search."""
        factory = RngFactory("random-forest", seed=self.seed)
        samples = np.stack(
            [
                factory.child("tree", t).integers(0, n, size=n)
                for t in range(self.n_estimators)
            ]
        )
        Xb = X[samples]  # (T, n, p) bootstrap designs
        root_sorted = np.argsort(Xb, axis=1, kind="stable")
        trees = []
        for t in range(self.n_estimators):
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                rng=factory.child("split", t),
            )
            tree._fit_arrays(Xb[t], y[samples[t]], root_sorted=root_sorted[t])
            trees.append(tree)
        return trees

    def predict(self, X) -> np.ndarray:
        p = self._require_fitted()
        X = check_X(X, p)
        vals = self._tree_values(X)
        # Accumulate tree-by-tree in index order: the exact addition
        # sequence of the historical per-tree loop, so results stay
        # bit-identical to pre-packed forests.
        acc = np.zeros(X.shape[0])
        for t in range(vals.shape[0]):
            acc += vals[t]
        return acc / len(self.trees)

    def predict_std(self, X) -> np.ndarray:
        """Ensemble disagreement (std of per-tree predictions).

        The cheap epistemic-uncertainty estimate behind model-based
        search: high where the forest has seen little training data.
        """
        p = self._require_fitted()
        X = check_X(X, p)
        return self._tree_values(X).std(axis=0)

    def _tree_values(self, X: np.ndarray) -> np.ndarray:
        """Per-tree predictions via the packed traversal."""
        if self._packed is None:
            self._packed = PackedTrees(self.trees)
        return self._packed.tree_values(X)
