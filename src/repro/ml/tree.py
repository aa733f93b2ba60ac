"""CART regression trees (the building block of the paper's surrogate).

Section III-A: the input space is recursively partitioned into
hyperrectangles; each leaf predicts the mean runtime of the training
configurations that fall inside it (Figure 2 shows such a tree for the
matrix-multiplication kernel).

The implementation stores the tree in flat parallel arrays so that
prediction over a 10,000-configuration pool (the paper's ``N``) is a
handful of vectorized index operations rather than a Python recursion
per row.

The split search presorts once: one global stable argsort per feature
at ``fit()``; sorted index partitions are maintained down the tree
(sklearn-style), and each candidate feature of a node is scanned by one
prefix-sum pass over its presorted rows.  Growth is O(depth · p · n)
after the initial O(p · n log n) sort; node means use raw ufunc
reductions (scalar arithmetic for tiny nodes, where NumPy's pairwise
summation is defined to be plain left-to-right).  When the native
kernels compile, each split is one fused ``fit_node`` call; otherwise
the same growth runs in NumPy, with the scan as a plain Python loop
over the same IEEE-double arithmetic.

The original per-node-per-feature ``np.argsort`` search,
O(depth · p · n log n), lives on as the slow reference in
``tests/ml/legacy_tree.py``; both grow bit-identical trees.  The
argument: node rows are always kept in ascending global order, so the
reference's per-node stable argsort orders ties by global row index —
exactly the order obtained by restricting a global stable argsort to
the node's rows, which is what the presorted partitions maintain.
Identical element order means identical prefix sums, identical SSE
values, and identical chosen thresholds.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass

import numpy as np

from repro.errors import ModelError
from repro.ml import _native
from repro.ml.base import Regressor, check_X, check_Xy

__all__ = ["DecisionTreeRegressor", "TreeNodes"]

_NO_CHILD = -1

#: Strict-improvement margin: the first candidate feature within it of
#: the running best wins, so every scan path breaks ties the same way.
_SSE_TOL = 1e-12

#: Below this size NumPy's pairwise summation degenerates to a plain
#: left-to-right loop, so Python scalar arithmetic reproduces it
#: bit-for-bit and skips several array-op dispatches per node.
_SCALAR_SUM_MAX = 8


@dataclass
class TreeNodes:
    """Flat array representation of a fitted tree.

    ``feature[i] == -1`` marks node ``i`` as a leaf.  For internal
    nodes, rows with ``x[feature] <= threshold`` go to ``left``,
    the rest to ``right``.
    """

    feature: np.ndarray  # (n_nodes,) int
    threshold: np.ndarray  # (n_nodes,) float
    left: np.ndarray  # (n_nodes,) int
    right: np.ndarray  # (n_nodes,) int
    value: np.ndarray  # (n_nodes,) float — mean target in the node
    n_samples: np.ndarray  # (n_nodes,) int

    @property
    def n_nodes(self) -> int:
        return len(self.feature)


class DecisionTreeRegressor(Regressor):
    """CART regression tree with a vectorized split search.

    Parameters
    ----------
    max_depth:
        Maximum depth (root = depth 0); ``None`` grows until pure.
    min_samples_split:
        Smallest node size eligible for splitting.
    min_samples_leaf:
        Smallest allowed leaf size.
    max_features:
        Number of features examined per split: an int, a fraction in
        (0, 1], ``"sqrt"``, ``"third"`` (the classic regression-forest
        default p/3), or ``None`` for all features.
    rng:
        Generator used for feature subsampling (only consulted when
        ``max_features`` restricts the candidate set).
    """

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | float | str | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        if max_depth is not None and max_depth < 0:
            raise ModelError(f"max_depth must be >= 0, got {max_depth}")
        if min_samples_split < 2:
            raise ModelError(f"min_samples_split must be >= 2, got {min_samples_split}")
        if min_samples_leaf < 1:
            raise ModelError(f"min_samples_leaf must be >= 1, got {min_samples_leaf}")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.nodes: TreeNodes | None = None

    # ------------------------------------------------------------------
    def _n_candidate_features(self, p: int) -> int:
        mf = self.max_features
        if mf is None:
            return p
        if isinstance(mf, str):
            if mf == "sqrt":
                return max(1, int(np.sqrt(p)))
            if mf == "third":
                return max(1, p // 3)
            raise ModelError(f"unknown max_features spec {mf!r}")
        if isinstance(mf, float):
            if not 0.0 < mf <= 1.0:
                raise ModelError(f"fractional max_features must be in (0, 1], got {mf}")
            return max(1, int(round(mf * p)))
        k = int(mf)
        if not 1 <= k <= p:
            raise ModelError(f"max_features {k} out of range [1, {p}]")
        return k

    def fit(self, X, y) -> "DecisionTreeRegressor":
        X, y = check_Xy(X, y)
        return self._fit_arrays(X, y)

    def _fit_arrays(
        self, X: np.ndarray, y: np.ndarray, root_sorted: np.ndarray | None = None
    ) -> "DecisionTreeRegressor":
        """Fit on already-validated float arrays.

        ``root_sorted`` optionally supplies the (n, p) global stable
        argsort of ``X`` (the forest batches these across trees).
        """
        # The native kernels index X/y by raw pointer; contiguity is a
        # no-op copy for the arrays the forest passes in.
        X = np.ascontiguousarray(X)
        y = np.ascontiguousarray(y)
        n, p = X.shape
        k = self._n_candidate_features(p)
        msl = self.min_samples_leaf
        mss = self.min_samples_split
        max_depth = self.max_depth
        rng_choice = self.rng.choice
        add = np.add.reduce  # identical C path to ndarray.sum()
        lib = _native.handle()

        feature: list[int] = []
        threshold: list[float] = []
        left: list[int] = []
        right: list[int] = []
        value: list[float] = []
        counts: list[int] = []

        def new_node(ys: np.ndarray, m: int) -> tuple[int, bool]:
            """Record a node; returns (id, pure).  The mean follows the
            exact reduction order of ``ndarray.mean`` (plain
            left-to-right below the pairwise-summation cutoff).  Purity
            is an explicit all-equal scan: the mean of a pure node can
            round away from its common value."""
            node = len(feature)
            if m < _SCALAR_SUM_MAX:
                vals = ys.tolist()
                s = 0.0
                for v in vals:
                    s += v
                mean = s / m
                first = vals[0]
                pure = True
                for v in vals:
                    if v != first:
                        pure = False
                        break
            else:
                mean = float(add(ys) / m)
                pure = bool((ys == ys[0]).all())
            feature.append(-1)
            threshold.append(np.nan)
            left.append(_NO_CHILD)
            right.append(_NO_CHILD)
            value.append(mean)
            counts.append(m)
            return node, pure

        arange_p = np.arange(p)
        inf = np.inf
        colsT = np.ascontiguousarray(X.T)

        def best_split(ys, sorted_T, cand, m):
            """Best (feature, threshold) over the candidates, from the
            presorted row-major (feature, position) matrix; ``None``
            when no valid split exists.  Python floats are IEEE
            doubles, so this loop rounds exactly like the native
            ``split_scan`` and the per-node argsort reference: a
            sequential prefix sum, the same SSE grouping, first-min per
            column, and the first candidate within ``_SSE_TOL`` of the
            running best wins."""
            # Positions with a left or right side below min_samples_leaf
            # can never split: accumulate their prefix silently and scan
            # only the eligible band [lo, hi).
            lo = msl - 1 if msl > 1 else 0
            hi = m - msl if msl > 1 else m - 1
            if hi <= lo:
                return None
            y_sum = float(add(ys))
            y_sq_sum = float(np.dot(ys, ys))
            best = None
            best_sse = inf
            for f in cand:
                f = int(f)
                rows = sorted_T[f]
                xs = colsT[f].take(rows).tolist()
                yv = y.take(rows).tolist()
                csum = 0.0
                csq = 0.0
                col_best = inf
                col_pos = -1
                for v in yv[:lo]:
                    csum += v
                    csq += v * v
                prev_x = xs[lo]
                for i, (v, next_x) in enumerate(
                    zip(yv[lo:hi], xs[lo + 1:hi + 1]), start=lo
                ):
                    csum += v
                    csq += v * v
                    if next_x > prev_x:
                        sl = i + 1
                        sright = y_sum - csum
                        sse = (csq - csum * csum / sl) + (
                            (y_sq_sum - csq) - sright * sright / (m - sl)
                        )
                        # NaN wins once, like np.argmin: a NaN column
                        # best is never displaced.
                        if sse < col_best or (sse != sse and col_best == col_best):
                            col_best = sse
                            col_pos = i
                    prev_x = next_x
                if col_pos >= 0 and col_best < best_sse - _SSE_TOL:
                    best_sse = col_best
                    xlo = xs[col_pos]
                    xhi = xs[col_pos + 1]
                    thr = 0.5 * (xlo + xhi)
                    if thr <= xlo:
                        thr = xhi
                    best = (f, thr)
            return best

        root_idx = np.arange(n)
        if root_sorted is None:
            root_sorted = np.argsort(X, axis=0, kind="stable")
        # Row-major (feature, position) layout keeps every per-node op
        # on contiguous memory (row slices, row-major boolean partition).
        sorted_T0 = np.ascontiguousarray(root_sorted.T)
        member = np.zeros(n, dtype=bool)

        def eligible(m: int, depth: int, pure: bool) -> bool:
            return not (
                m < mss or (max_depth is not None and depth >= max_depth) or pure
            )

        root, root_pure = new_node(y, n)

        if lib is not None:
            # Native growth: ONE fused C call per split (fit_node =
            # split_scan + partition_node), replaying best_split above:
            # sequential prefix sums, same SSE arithmetic and grouping,
            # first-min per column, same tie-break, then stable row
            # routing, presorted-row splits, and both children's means
            # in new_node's exact arithmetic order.  Compiled with -ffp-contract=off, so every double
            # op rounds exactly like NumPy's.  Arguments travel through
            # two preconstructed param blocks — ctypes converts every
            # argument of every call, which at this call rate costs
            # more than the kernels — and node buffers bump-allocate
            # from arena blocks, so the loop never re-derives a pointer
            # through ndarray.ctypes.
            native_fit = lib.fit_node
            ip = np.zeros(_native.FN_SLOTS, dtype=np.int64)
            dp = np.zeros(_native.FD_SLOTS)
            cand_buf = np.empty(p, dtype=np.int64)
            ip[_native.FN_X] = X.ctypes.data
            ip[_native.FN_P] = p
            ip[_native.FN_Y] = y.ctypes.data
            ip[_native.FN_CAND] = cand_buf.ctypes.data
            ip[_native.FN_K] = min(k, p)
            ip[_native.FN_MSL] = msl
            ip[_native.FN_MSS] = mss
            ip[_native.FN_MEMBER] = member.ctypes.data
            ip[_native.FN_SCALAR_MAX] = _SCALAR_SUM_MAX
            # y_sum/y_sq_sum stay in NumPy: pairwise reduce and BLAS
            # dot have summation orders plain C loops cannot replay.
            dp[_native.FD_TOL] = _SSE_TOL
            ip_arg = ctypes.c_void_p(ip.ctypes.data)
            dp_arg = ctypes.c_void_p(dp.ctypes.data)
            if k >= p:
                cand_buf[:] = arange_p
            fn_idx = _native.FN_IDX
            fn_ys = _native.FN_YS
            fn_t = _native.FN_T
            fn_m = _native.FN_M
            fn_depth_ok = _native.FN_DEPTH_OK
            fn_out_idx = _native.FN_OUT_IDX
            fn_out_ys = _native.FN_OUT_YS
            fn_out_t = _native.FN_OUT_T
            fd_stats = _native.FD_STATS

            def record_child(ys_c, mc, off):
                """Record a child whose purity fit_node already
                determined; small children arrive with their scalar
                mean, larger ones replay new_node's pairwise path."""
                if dp[off + 2]:
                    mean = float(dp[off])
                else:
                    mean = float(add(ys_c) / mc)
                child = len(feature)
                feature.append(-1)
                threshold.append(np.nan)
                left.append(_NO_CHILD)
                right.append(_NO_CHILD)
                value.append(mean)
                counts.append(mc)
                return child

            # Arena blocks for node buffers (out_idx + out_T share an
            # int64 block, out_ys a float64 block); kept alive for the
            # whole fit, grown on demand.
            blocks: list = []
            arena_i = arena_f = None
            base_i = base_f = cap_i = cap_f = off_i = off_f = 0

            stack = []
            if eligible(n, 0, root_pure):
                stack.append(
                    (root, y, 0, root_idx.ctypes.data, y.ctypes.data,
                     sorted_T0.ctypes.data)
                )
            while stack:
                node, ys, depth, idx_ptr, ys_ptr, T_ptr = stack.pop()
                m = len(ys)
                if k < p:
                    cand_buf[:k] = rng_choice(p, size=k, replace=False)
                need_i = (p + 1) * m
                if off_i + need_i > cap_i:
                    arena_i = np.empty(max(need_i, 1 << 14), dtype=np.int64)
                    blocks.append(arena_i)
                    base_i = arena_i.ctypes.data
                    cap_i = len(arena_i)
                    off_i = 0
                if off_f + m > cap_f:
                    arena_f = np.empty(max(m, 1 << 12))
                    blocks.append(arena_f)
                    base_f = arena_f.ctypes.data
                    cap_f = len(arena_f)
                    off_f = 0
                oy = off_f
                oi_p = base_i + 8 * off_i
                oy_p = base_f + 8 * oy
                bT_p = oi_p + 8 * m
                off_i += need_i
                off_f += m
                child_depth = depth + 1
                depth_ok = max_depth is None or child_depth < max_depth
                ip[fn_idx] = idx_ptr
                ip[fn_ys] = ys_ptr
                ip[fn_t] = T_ptr
                ip[fn_m] = m
                ip[fn_depth_ok] = depth_ok
                ip[fn_out_idx] = oi_p
                ip[fn_out_ys] = oy_p
                ip[fn_out_t] = bT_p
                dp[0] = add(ys)
                dp[1] = np.dot(ys, ys)
                n_left = native_fit(ip_arg, dp_arg)
                if n_left < 0:
                    continue
                f = int(ip[_native.FN_OUT_F])
                if n_left == 0 or n_left == m:  # pragma: no cover - guarded
                    continue
                n_right = m - n_left
                feature[node] = f
                threshold[node] = dp[_native.FD_THR]
                ys_left = arena_f[oy:oy + n_left]
                ys_right = arena_f[oy + n_left:oy + m]
                lchild = record_child(ys_left, n_left, fd_stats)
                left[node] = lchild
                rchild = record_child(ys_right, n_right, fd_stats + 3)
                right[node] = rchild
                if depth_ok and n_left >= mss and not dp[fd_stats + 1]:
                    stack.append(
                        (lchild, ys_left, child_depth, oi_p, oy_p, bT_p)
                    )
                if depth_ok and n_right >= mss and not dp[fd_stats + 4]:
                    stack.append(
                        (rchild, ys_right, child_depth,
                         oi_p + 8 * n_left, oy_p + 8 * n_left,
                         bT_p + 8 * p * n_left)
                    )
            self._store(feature, threshold, left, right, value, counts, p)
            return self

        stack = []
        if eligible(n, 0, root_pure):
            stack.append((root, root_idx, y, 0, sorted_T0))
        while stack:
            node, idx, ys, depth, sorted_T = stack.pop()
            m = len(idx)
            cand = rng_choice(p, size=k, replace=False) if k < p else arange_p
            found = best_split(ys, sorted_T, cand, m)
            if found is None:
                continue
            f, thr = found
            # Flat take on the transposed copy beats the strided 2-D
            # fancy index; the compared values are identical either way.
            go_left = colsT[f].take(idx) <= thr
            not_left = ~go_left
            ys_left = ys[go_left]
            ys_right = ys[not_left]
            n_left = len(ys_left)
            if n_left == 0 or n_left == m:  # pragma: no cover - guarded by valid
                continue
            feature[node] = f
            threshold[node] = thr
            lchild, lpure = new_node(ys_left, n_left)
            left[node] = lchild
            rchild, rpure = new_node(ys_right, m - n_left)
            right[node] = rchild
            child_depth = depth + 1
            l_ok = eligible(n_left, child_depth, lpure)
            r_ok = eligible(m - n_left, child_depth, rpure)
            if l_ok or r_ok:
                # Stable partition of every presorted row: each row holds
                # the same row set, so each keeps exactly n_left
                # left-members, in unchanged relative order.  Skipped
                # entirely when both children are terminal leaves.
                left_idx = idx[go_left]
                member[left_idx] = True
                sel = member[sorted_T]
                left_T = sorted_T[sel].reshape(p, n_left)
                right_T = sorted_T[~sel].reshape(p, m - n_left)
                member[left_idx] = False
                if l_ok:
                    stack.append((lchild, left_idx, ys_left, child_depth, left_T))
                if r_ok:
                    stack.append(
                        (rchild, idx[not_left], ys_right, child_depth, right_T)
                    )

        self._store(feature, threshold, left, right, value, counts, p)
        return self

    def _store(self, feature, threshold, left, right, value, counts, p) -> None:
        self.nodes = TreeNodes(
            feature=np.array(feature, dtype=int),
            threshold=np.array(threshold, dtype=float),
            left=np.array(left, dtype=int),
            right=np.array(right, dtype=int),
            value=np.array(value, dtype=float),
            n_samples=np.array(counts, dtype=int),
        )
        self._n_features = p

    # ------------------------------------------------------------------
    def apply(self, X) -> np.ndarray:
        """Leaf index reached by each row of ``X``."""
        p = self._require_fitted()
        X = check_X(X, p)
        nodes = self.nodes
        assert nodes is not None
        pos = np.zeros(X.shape[0], dtype=int)
        active = nodes.feature[pos] != -1
        while np.any(active):
            cur = pos[active]
            f = nodes.feature[cur]
            thr = nodes.threshold[cur]
            rows = np.flatnonzero(active)
            go_left = X[rows, f] <= thr
            nxt = np.where(go_left, nodes.left[cur], nodes.right[cur])
            pos[rows] = nxt
            active = nodes.feature[pos] != -1
        return pos

    def predict(self, X) -> np.ndarray:
        nodes = self.nodes
        if nodes is None:
            self._require_fitted()
        leaves = self.apply(X)
        return self.nodes.value[leaves]  # type: ignore[union-attr]

    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Depth of the fitted tree (root = 0)."""
        self._require_fitted()
        nodes = self.nodes
        assert nodes is not None
        if nodes.n_nodes == 0:  # pragma: no cover - fit always creates a root
            return 0
        # Level-order frontier walk: one vectorized step per level
        # instead of a Python loop over every node.
        depth = 0
        frontier = np.array([0])
        while True:
            internal = frontier[nodes.feature[frontier] != -1]
            if internal.size == 0:
                return depth
            frontier = np.concatenate([nodes.left[internal], nodes.right[internal]])
            depth += 1

    @property
    def n_leaves(self) -> int:
        self._require_fitted()
        assert self.nodes is not None
        return int(np.sum(self.nodes.feature == -1))
