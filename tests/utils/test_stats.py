"""Statistics utilities, cross-checked against SciPy."""

import numpy as np
import pytest
import scipy.stats
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.stats import (
    bootstrap_ci,
    pearson,
    quantile,
    rank,
    spearman,
    summary,
)

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestPearson:
    def test_perfect_positive(self):
        x = [1.0, 2.0, 3.0, 4.0]
        assert pearson(x, [2.0, 4.0, 6.0, 8.0]) == pytest.approx(1.0)

    def test_perfect_negative(self):
        x = [1.0, 2.0, 3.0, 4.0]
        assert pearson(x, [4.0, 3.0, 2.0, 1.0]) == pytest.approx(-1.0)

    def test_matches_scipy(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=200)
        y = 0.7 * x + rng.normal(size=200)
        expected = scipy.stats.pearsonr(x, y).statistic
        assert pearson(x, y) == pytest.approx(expected, abs=1e-12)

    def test_constant_is_nan(self):
        assert np.isnan(pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pearson([1.0, 2.0], [1.0])

    def test_too_short(self):
        with pytest.raises(ValueError):
            pearson([1.0], [1.0])

    @given(
        st.lists(finite_floats, min_size=3, max_size=40),
    )
    def test_property_bounded_and_symmetric(self, xs):
        rng = np.random.default_rng(1)
        ys = list(rng.normal(size=len(xs)))
        r = pearson(xs, ys)
        if not np.isnan(r):
            assert -1.0 <= r <= 1.0
            assert pearson(ys, xs) == pytest.approx(r)


class TestRankSpearman:
    def test_rank_simple(self):
        np.testing.assert_array_equal(rank([30.0, 10.0, 20.0]), [3.0, 1.0, 2.0])

    def test_rank_ties_averaged(self):
        np.testing.assert_array_equal(rank([5.0, 5.0, 1.0]), [2.5, 2.5, 1.0])

    def test_spearman_matches_scipy(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=150)
        y = x**3 + rng.normal(scale=0.1, size=150)
        expected = scipy.stats.spearmanr(x, y).statistic
        assert spearman(x, y) == pytest.approx(expected, abs=1e-12)

    def test_spearman_with_ties_matches_scipy(self):
        rng = np.random.default_rng(3)
        x = rng.integers(0, 5, size=100).astype(float)
        y = rng.integers(0, 5, size=100).astype(float)
        expected = scipy.stats.spearmanr(x, y).statistic
        assert spearman(x, y) == pytest.approx(expected, abs=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=50)
        y = rng.normal(size=50)
        assert spearman(np.exp(x), y) == pytest.approx(spearman(x, y))


class TestQuantile:
    def test_median(self):
        assert quantile([1.0, 2.0, 3.0], 0.5) == 2.0

    def test_bounds(self):
        vals = [3.0, 1.0, 2.0]
        assert quantile(vals, 0.0) == 1.0
        assert quantile(vals, 1.0) == 3.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            quantile([1.0], 1.5)

    def test_empty(self):
        with pytest.raises(ValueError):
            quantile([], 0.5)

    @given(st.lists(finite_floats, min_size=1, max_size=30), st.floats(0, 1))
    def test_property_within_range(self, xs, q):
        v = quantile(xs, q)
        assert min(xs) <= v <= max(xs)


class TestBootstrap:
    def test_contains_mean_for_tight_sample(self):
        vals = np.full(50, 3.0) + np.random.default_rng(5).normal(scale=0.01, size=50)
        lo, hi = bootstrap_ci(vals, confidence=0.95)
        assert lo <= float(np.mean(vals)) <= hi
        assert hi - lo < 0.1

    def test_deterministic(self):
        vals = np.random.default_rng(6).normal(size=30)
        assert bootstrap_ci(vals) == bootstrap_ci(vals)

    def test_invalid_confidence(self):
        with pytest.raises(ValueError):
            bootstrap_ci([1.0, 2.0], confidence=1.0)


class TestSummary:
    def test_fields(self):
        s = summary([1.0, 2.0, 3.0, 4.0])
        assert s.n == 4
        assert s.mean == pytest.approx(2.5)
        assert s.minimum == 1.0
        assert s.maximum == 4.0
        assert s.median == pytest.approx(2.5)

    def test_single_value_std_zero(self):
        assert summary([5.0]).std == 0.0

    def test_str_contains_stats(self):
        assert "mean=" in str(summary([1.0, 2.0]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summary([])
