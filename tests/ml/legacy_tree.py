"""The per-node-argsort split search, kept as the slow reference for
:class:`repro.ml.tree.DecisionTreeRegressor`.

This is the original growth engine, unchanged: every node argsorts each
candidate feature afresh, O(depth · p · n log n).  The presorted growth
in ``src/`` (NumPy and native) must reproduce its trees bit for bit.

Equivalence tests substitute :class:`LegacyTree` for the
``DecisionTreeRegressor`` name inside :mod:`repro.ml.forest` and
:mod:`repro.ml.boosting` (the ``fit_legacy`` fixture in
``tests/ml/test_engine_equivalence.py``), so ensembles grow legacy trees
without the library offering an engine switch.
"""

from __future__ import annotations

import numpy as np

from repro.ml.tree import _NO_CHILD, _SSE_TOL, DecisionTreeRegressor

__all__ = ["LegacyTree"]


def _best_split(
    X: np.ndarray,
    y: np.ndarray,
    feature_ids: np.ndarray,
    min_samples_leaf: int,
) -> tuple[int, float] | None:
    """Best (feature, threshold) over candidate features.

    Uses the classic prefix-sum trick: with rows sorted by the feature,
    the sum of left+right SSE for every split position comes from the
    cumulative sums of ``y`` and ``y**2``.  Returns ``None`` if no valid
    split exists (all candidate features constant, or leaf-size limits).
    """
    n = len(y)
    best: tuple[int, float] | None = None
    best_sse = np.inf
    y_sum = y.sum()
    y_sq_sum = float(np.dot(y, y))
    for f in feature_ids:
        col = X[:, f]
        order = np.argsort(col, kind="stable")
        xs = col[order]
        ys = y[order]
        # Candidate split after position i (1-based left size i+1).
        csum = np.cumsum(ys)
        csq = np.cumsum(ys * ys)
        sizes_left = np.arange(1, n, dtype=float)
        sum_left = csum[:-1]
        sq_left = csq[:-1]
        sum_right = y_sum - sum_left
        sq_right = y_sq_sum - sq_left
        sizes_right = n - sizes_left
        sse = (sq_left - sum_left**2 / sizes_left) + (sq_right - sum_right**2 / sizes_right)
        # Valid positions: value actually changes, and both sides large enough.
        valid = xs[1:] > xs[:-1]
        if min_samples_leaf > 1:
            valid &= (sizes_left >= min_samples_leaf) & (sizes_right >= min_samples_leaf)
        if not np.any(valid):
            continue
        sse = np.where(valid, sse, np.inf)
        pos = int(np.argmin(sse))
        if sse[pos] < best_sse - _SSE_TOL:
            best_sse = float(sse[pos])
            threshold = 0.5 * (xs[pos] + xs[pos + 1])
            # Guard against midpoint rounding onto the left value.
            if threshold <= xs[pos]:
                threshold = xs[pos + 1]
            best = (int(f), float(threshold))
    return best


class LegacyTree(DecisionTreeRegressor):
    """A CART tree grown by the per-node-argsort reference search.

    Same constructor, same fitted representation, same prediction path
    as :class:`DecisionTreeRegressor`; only the growth differs.  The
    forest's batched ``root_sorted`` is accepted and ignored.
    """

    def _fit_arrays(
        self, X: np.ndarray, y: np.ndarray, root_sorted: np.ndarray | None = None
    ) -> "LegacyTree":
        n, p = X.shape
        k = self._n_candidate_features(p)

        feature: list[int] = []
        threshold: list[float] = []
        left: list[int] = []
        right: list[int] = []
        value: list[float] = []
        counts: list[int] = []

        def new_node(idx: np.ndarray) -> int:
            node = len(feature)
            ys = y[idx]
            feature.append(-1)
            threshold.append(np.nan)
            left.append(_NO_CHILD)
            right.append(_NO_CHILD)
            value.append(float(ys.mean()))
            counts.append(len(idx))
            return node

        # Iterative depth-first growth with an explicit stack: recursion
        # depth is unbounded for pathological data otherwise.
        root_idx = np.arange(n)
        stack = [(new_node(root_idx), root_idx, 0)]
        while stack:
            node, idx, depth = stack.pop()
            ys = y[idx]
            if (
                len(idx) < self.min_samples_split
                or (self.max_depth is not None and depth >= self.max_depth)
                or np.all(ys == ys[0])
            ):
                continue
            if k < p:
                cand = self.rng.choice(p, size=k, replace=False)
            else:
                cand = np.arange(p)
            found = _best_split(X[idx], ys, cand, self.min_samples_leaf)
            if found is None:
                continue
            f, thr = found
            go_left = X[idx, f] <= thr
            left_idx = idx[go_left]
            right_idx = idx[~go_left]
            if len(left_idx) == 0 or len(right_idx) == 0:  # pragma: no cover - guarded
                continue
            feature[node] = f
            threshold[node] = thr
            lchild = new_node(left_idx)
            left[node] = lchild
            stack.append((lchild, left_idx, depth + 1))
            rchild = new_node(right_idx)
            right[node] = rchild
            stack.append((rchild, right_idx, depth + 1))

        self._store(feature, threshold, left, right, value, counts, p)
        return self
