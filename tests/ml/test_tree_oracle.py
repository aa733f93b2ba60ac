"""Randomized differential oracle for tree growth.

:class:`DecisionTreeRegressor` grows trees through presorted partitions,
either in the compiled ``fit_node`` kernel or in NumPy (one scalar
split scan).  :class:`~tests.ml.legacy_tree.LegacyTree` argsorts every
feature at every node.  On seeded random designs, every ``TreeNodes``
field must agree exactly (``==``, not ``allclose``) across the full
grid of tree hyperparameters, with and without the native kernels.

The designs mix continuous, heavily tied and constant feature columns
with continuous, discretized and constant targets, at node counts
below the scalar-statistics cutoff, in the tuner's range, and above
any design the tuner fits.
"""

import itertools

import numpy as np
import pytest

from repro.ml import _native
from repro.ml.tree import _SCALAR_SUM_MAX, DecisionTreeRegressor
from tests.ml.legacy_tree import LegacyTree

TREE_FIELDS = ("feature", "threshold", "left", "right", "value", "n_samples")

#: Training-set sizes: the root alone is below the scalar-statistics
#: cutoff; a design of the tuner's size; and a root larger than any
#: node the tuner fits (its designs have at most nmax rows plus the
#: source rows).
SIZES = (_SCALAR_SUM_MAX - 2, 64, 277)
TARGETS = ("continuous", "discretized", "constant")
MAX_FEATURES = (None, "sqrt", "third", 2, 0.5)
MIN_SAMPLES_LEAF = (1, 2, 5)
MAX_DEPTH = (None, 0, 3)

CASES = list(itertools.product(SIZES, TARGETS, MAX_FEATURES, MIN_SAMPLES_LEAF, MAX_DEPTH))


def random_design(n: int, target: str, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """A seeded design of 3-7 columns: one constant column, the others
    continuous or drawn from a few levels (ties), shuffled together."""
    rng = np.random.default_rng(seed)
    p = int(rng.integers(3, 8))
    cols = [np.full(n, float(rng.integers(-3, 4)))]
    for _ in range(p - 1):
        if rng.random() < 0.5:
            cols.append(rng.normal(size=n))
        else:
            cols.append(rng.integers(0, 4, size=n) * 0.25)
    X = np.column_stack([cols[i] for i in rng.permutation(p)])
    if target == "constant":
        y = np.full(n, 0.1)
    else:
        y = rng.normal(size=n) + 2.0 * X[:, 0] - X[:, -1] ** 2
        if target == "discretized":
            y = np.round(y)
    return X, y


@pytest.fixture(params=["native", "numpy"])
def growth_path(request, monkeypatch):
    if request.param == "numpy":
        monkeypatch.setenv("REPRO_NATIVE", "0")
        assert _native.handle() is None
    elif not _native.available():
        pytest.skip("native kernels unavailable")
    return request.param


def test_presorted_growth_matches_legacy_tree(growth_path):
    assert min(SIZES) < _SCALAR_SUM_MAX and max(SIZES) > 256
    for i, (n, target, max_features, min_samples_leaf, max_depth) in enumerate(CASES):
        X, y = random_design(n, target, seed=i)
        params = dict(
            max_features=max_features,
            min_samples_leaf=min_samples_leaf,
            max_depth=max_depth,
        )
        ref = LegacyTree(rng=np.random.default_rng(i), **params).fit(X, y)
        fast = DecisionTreeRegressor(rng=np.random.default_rng(i), **params).fit(X, y)
        case = f"case {i}: n={n} target={target} {params} ({growth_path})"
        for field in TREE_FIELDS:
            np.testing.assert_array_equal(
                getattr(fast.nodes, field), getattr(ref.nodes, field),
                err_msg=f"{field} differs in {case}", strict=True,
            )
