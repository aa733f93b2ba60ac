"""Tests for tree text export (Figure 2 rendering)."""

import numpy as np
import pytest

from repro.errors import NotFittedError
from repro.ml.export import export_text
from repro.ml.tree import DecisionTreeRegressor


@pytest.fixture
def fitted_tree():
    rng = np.random.default_rng(0)
    X = rng.uniform(0, 32, size=(200, 6))
    # Mimic Figure 2: runtime driven by unrolls and register tilings.
    y = np.where(X[:, 0] <= 16, 10.0, 14.0) + np.where(X[:, 3] <= 8, 0.0, 2.0)
    return DecisionTreeRegressor(max_depth=3).fit(X, y)


FEATURES = ["U_I", "U_J", "U_K", "RT_I", "RT_J", "RT_K"]


class TestExportText:
    def test_contains_feature_names(self, fitted_tree):
        text = export_text(fitted_tree, feature_names=FEATURES)
        assert "U_I" in text
        assert "<=" in text and ">" in text

    def test_default_feature_names(self, fitted_tree):
        assert "x0" in export_text(fitted_tree)

    def test_leaves_have_values_and_counts(self, fitted_tree):
        text = export_text(fitted_tree, feature_names=FEATURES)
        assert "value:" in text
        assert "(n=" in text

    def test_wrong_name_count_rejected(self, fitted_tree):
        with pytest.raises(ValueError):
            export_text(fitted_tree, feature_names=["a", "b"])

    def test_unfitted_rejected(self):
        with pytest.raises(NotFittedError):
            export_text(DecisionTreeRegressor())
