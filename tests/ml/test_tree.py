"""Tests for the CART regression tree."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import ModelError, NotFittedError
from repro.ml.tree import DecisionTreeRegressor


def stepwise_data(n=200, seed=0):
    """Piecewise-constant target — a tree should fit this exactly."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 10, size=(n, 3))
    y = np.where(X[:, 0] <= 5.0, 1.0, 3.0) + np.where(X[:, 1] <= 2.0, 0.0, 0.5)
    return X, y


class TestFitting:
    def test_fits_piecewise_constant_exactly(self):
        X, y = stepwise_data()
        tree = DecisionTreeRegressor().fit(X, y)
        np.testing.assert_allclose(tree.predict(X), y, atol=1e-12)

    def test_single_sample(self):
        tree = DecisionTreeRegressor().fit([[1.0, 2.0]], [5.0])
        assert tree.predict([[9.0, 9.0]])[0] == 5.0

    def test_constant_target_single_leaf(self):
        X = np.random.default_rng(0).normal(size=(50, 4))
        tree = DecisionTreeRegressor().fit(X, np.full(50, 2.0))
        assert tree.n_leaves == 1
        assert tree.depth == 0

    def test_max_depth_zero_predicts_mean(self):
        X, y = stepwise_data()
        tree = DecisionTreeRegressor(max_depth=0).fit(X, y)
        np.testing.assert_allclose(tree.predict(X), np.full_like(y, y.mean()))

    def test_max_depth_limits_depth(self):
        X, y = stepwise_data()
        for d in (1, 2, 3):
            tree = DecisionTreeRegressor(max_depth=d).fit(X, y)
            assert tree.depth <= d

    def test_min_samples_leaf_respected(self):
        X, y = stepwise_data()
        tree = DecisionTreeRegressor(min_samples_leaf=20).fit(X, y)
        assert tree.nodes.n_samples[tree.nodes.feature == -1].min() >= 20

    @pytest.mark.parametrize("native", ["1", "0"])
    def test_design_smaller_than_one_leaf_is_one_leaf(self, native, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", native)
        tree = DecisionTreeRegressor(min_samples_leaf=5).fit(
            np.arange(3.0).reshape(-1, 1), np.arange(3.0)
        )
        assert tree.n_leaves == 1
        assert tree.nodes.value[0] == 1.0

    def test_min_samples_split_respected(self):
        X, y = stepwise_data()
        tree = DecisionTreeRegressor(min_samples_split=50).fit(X, y)
        # Any node smaller than 50 must be a leaf.
        small = tree.nodes.n_samples < 50
        assert np.all(tree.nodes.feature[small] == -1)

    def test_duplicate_feature_rows_no_split(self):
        # All features identical: no valid split; predict the mean.
        X = np.ones((10, 2))
        y = np.arange(10.0)
        tree = DecisionTreeRegressor().fit(X, y)
        assert tree.n_leaves == 1
        assert tree.predict([[1.0, 1.0]])[0] == pytest.approx(y.mean())

    def test_invalid_hyperparameters(self):
        with pytest.raises(ModelError):
            DecisionTreeRegressor(max_depth=-1)
        with pytest.raises(ModelError):
            DecisionTreeRegressor(min_samples_split=1)
        with pytest.raises(ModelError):
            DecisionTreeRegressor(min_samples_leaf=0)

    def test_nan_rejected(self):
        with pytest.raises(ModelError):
            DecisionTreeRegressor().fit([[np.nan]], [1.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ModelError):
            DecisionTreeRegressor().fit([[1.0], [2.0]], [1.0])


class TestPrediction:
    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            DecisionTreeRegressor().predict([[1.0]])

    def test_wrong_width_rejected(self):
        X, y = stepwise_data()
        tree = DecisionTreeRegressor().fit(X, y)
        with pytest.raises(ModelError):
            tree.predict(np.ones((2, 5)))

    def test_1d_input_promoted(self):
        X, y = stepwise_data()
        tree = DecisionTreeRegressor().fit(X, y)
        assert tree.predict(X[0]).shape == (1,)

    def test_apply_matches_predict(self):
        X, y = stepwise_data()
        tree = DecisionTreeRegressor(max_depth=4).fit(X, y)
        leaves = tree.apply(X)
        np.testing.assert_allclose(tree.nodes.value[leaves], tree.predict(X))

    def test_predictions_within_target_range(self):
        X, y = stepwise_data(seed=3)
        tree = DecisionTreeRegressor(max_depth=6).fit(X, y)
        grid = np.random.default_rng(1).uniform(-5, 15, size=(500, 3))
        pred = tree.predict(grid)
        assert pred.min() >= y.min() - 1e-12
        assert pred.max() <= y.max() + 1e-12


class TestSplitQuality:
    def test_first_split_on_dominant_feature(self):
        X, y = stepwise_data()
        tree = DecisionTreeRegressor(max_depth=1).fit(X, y)
        assert tree.nodes.feature[0] == 0  # the 2.0-step feature dominates

    def test_threshold_separates_classes(self):
        X, y = stepwise_data()
        tree = DecisionTreeRegressor(max_depth=1).fit(X, y)
        thr = tree.nodes.threshold[0]
        assert 4.0 < thr < 6.0

    def test_max_features_subsampling(self):
        X, y = stepwise_data()
        tree = DecisionTreeRegressor(max_features=1, rng=np.random.default_rng(0))
        tree.fit(X, y)
        assert tree.nodes.n_nodes > 1  # restricted candidate sets still split

    def test_max_features_specs(self):
        X, y = stepwise_data()
        for spec in ("sqrt", "third", 0.5, 2, None):
            DecisionTreeRegressor(max_features=spec).fit(X, y)
        with pytest.raises(ModelError):
            DecisionTreeRegressor(max_features="bogus").fit(X, y)
        with pytest.raises(ModelError):
            DecisionTreeRegressor(max_features=0).fit(X, y)
        with pytest.raises(ModelError):
            DecisionTreeRegressor(max_features=1.5).fit(X, y)


class TestProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(2, 40), st.integers(1, 4)),
            elements=st.floats(-100, 100, allow_nan=False),
        )
    )
    def test_property_training_rmse_nonincreasing_in_depth(self, X):
        rng = np.random.default_rng(0)
        y = rng.normal(size=X.shape[0])
        prev = np.inf
        for depth in (0, 1, 3, None):
            tree = DecisionTreeRegressor(max_depth=depth).fit(X, y)
            err = float(np.mean((tree.predict(X) - y) ** 2))
            assert err <= prev + 1e-9
            prev = err

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_property_prediction_is_mean_of_leaf(self, seed):
        X, y = stepwise_data(n=60, seed=seed)
        tree = DecisionTreeRegressor(max_depth=3, min_samples_leaf=5).fit(X, y)
        leaves = tree.apply(X)
        for leaf in np.unique(leaves):
            members = y[leaves == leaf]
            assert tree.nodes.value[leaf] == pytest.approx(members.mean())
