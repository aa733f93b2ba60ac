"""Tests for SearchSpace and Configuration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, SearchSpaceError
from repro.experiments.harness import PROBLEMS, build_problem
from repro.searchspace import (
    BooleanParameter,
    Configuration,
    EnumParameter,
    IntegerParameter,
    PowerOfTwoParameter,
    SearchSpace,
)


@pytest.fixture
def small_space():
    return SearchSpace(
        [
            IntegerParameter("u", 1, 4),
            PowerOfTwoParameter("t", 0, 2),
            BooleanParameter("omp"),
        ],
        name="small",
    )


class TestSpaceBasics:
    def test_cardinality(self, small_space):
        assert small_space.cardinality == 4 * 3 * 2

    def test_dimension(self, small_space):
        assert small_space.dimension == 3

    def test_duplicate_names_rejected(self):
        with pytest.raises(SearchSpaceError):
            SearchSpace([IntegerParameter("a", 0, 1), BooleanParameter("a")])

    def test_empty_rejected(self):
        with pytest.raises(SearchSpaceError):
            SearchSpace([])

    def test_contains(self, small_space):
        assert "u" in small_space
        assert "v" not in small_space


class TestIndexBijection:
    def test_full_roundtrip(self, small_space):
        seen = set()
        for i in range(small_space.cardinality):
            cfg = small_space.config_at(i)
            assert cfg.index == i
            seen.add(tuple(cfg.values()))
        assert len(seen) == small_space.cardinality

    def test_default_is_index_zero(self, small_space):
        d = small_space.default()
        assert d.index == 0
        assert d["u"] == 1 and d["t"] == 1 and d["omp"] is False

    def test_out_of_range(self, small_space):
        with pytest.raises(SearchSpaceError):
            small_space.config_at(small_space.cardinality)
        with pytest.raises(SearchSpaceError):
            small_space.config_at(-1)

    @settings(max_examples=30)
    @given(st.data())
    def test_property_roundtrip_random_spaces(self, data):
        dims = data.draw(st.integers(1, 4))
        params = []
        for d in range(dims):
            kind = data.draw(st.sampled_from(["int", "pow2", "bool"]))
            if kind == "int":
                lo = data.draw(st.integers(0, 5))
                params.append(IntegerParameter(f"p{d}", lo, lo + data.draw(st.integers(0, 6))))
            elif kind == "pow2":
                params.append(PowerOfTwoParameter(f"p{d}", 0, data.draw(st.integers(0, 5))))
            else:
                params.append(BooleanParameter(f"p{d}"))
        space = SearchSpace(params)
        idx = data.draw(st.integers(0, space.cardinality - 1))
        assert space.config_at(idx).index == idx


class TestConfiguration:
    def test_mapping_interface(self, small_space):
        cfg = small_space.configuration({"u": 2, "t": 4, "omp": True})
        assert cfg["u"] == 2
        assert len(cfg) == 3
        assert set(cfg) == {"u", "t", "omp"}

    def test_missing_value_rejected(self, small_space):
        with pytest.raises(ConfigurationError):
            small_space.configuration({"u": 2, "t": 4})

    def test_unknown_key_rejected(self, small_space):
        with pytest.raises(ConfigurationError):
            small_space.configuration({"u": 2, "t": 4, "omp": True, "zzz": 1})

    def test_invalid_value_rejected(self, small_space):
        with pytest.raises(SearchSpaceError):
            small_space.configuration({"u": 99, "t": 4, "omp": True})

    def test_immutability(self, small_space):
        cfg = small_space.default()
        with pytest.raises(AttributeError):
            cfg._index = 5

    def test_hash_and_eq(self, small_space):
        a = small_space.configuration({"u": 2, "t": 4, "omp": True})
        b = small_space.config_at(a.index)
        assert a == b
        assert hash(a) == hash(b)
        assert a != small_space.default()

    def test_replace(self, small_space):
        cfg = small_space.default().replace(u=3)
        assert cfg["u"] == 3
        assert cfg["t"] == 1

    def test_encode_layout(self, small_space):
        cfg = small_space.configuration({"u": 3, "t": 4, "omp": True})
        np.testing.assert_array_equal(cfg.encode(), [3.0, 2.0, 1.0])

    def test_encode_many(self, small_space):
        configs = [small_space.config_at(i) for i in range(5)]
        X = small_space.encode_many(configs)
        assert X.shape == (5, 3)
        np.testing.assert_array_equal(X[0], small_space.config_at(0).encode())

    def test_encode_many_empty(self, small_space):
        assert small_space.encode_many([]).shape == (0, 3)

    def test_feature_names(self, small_space):
        assert small_space.feature_names() == ["u", "t", "omp"]


class TestSampling:
    def test_without_replacement(self, small_space):
        rng = np.random.default_rng(0)
        configs = small_space.sample(rng, small_space.cardinality)
        assert len(set(configs)) == small_space.cardinality

    def test_exclusion_respected(self, small_space):
        rng = np.random.default_rng(1)
        first = small_space.sample(rng, 10)
        rest = small_space.sample(rng, small_space.cardinality - 10, exclude=first)
        assert not set(first) & set(rest)

    def test_oversampling_rejected(self, small_space):
        with pytest.raises(SearchSpaceError):
            small_space.sample(np.random.default_rng(0), small_space.cardinality + 1)

    def test_negative_rejected(self, small_space):
        with pytest.raises(SearchSpaceError):
            small_space.sample(np.random.default_rng(0), -1)

    def test_deterministic_given_rng(self, small_space):
        a = small_space.sample(np.random.default_rng(7), 8)
        b = small_space.sample(np.random.default_rng(7), 8)
        assert a == b

    def test_large_space_rejection_path(self):
        # A space big enough to force the rejection-sampling branch.
        space = SearchSpace(
            [IntegerParameter(f"p{i}", 1, 32) for i in range(8)], name="big"
        )
        assert space.cardinality == 32**8
        rng = np.random.default_rng(2)
        configs = space.sample(rng, 500)
        assert len(set(configs)) == 500

    def test_sample_one(self, small_space):
        cfg = small_space.sample(np.random.default_rng(3), 1)[0]
        assert isinstance(cfg, Configuration)

    def test_sample_one_with_exclusions(self, small_space):
        rng = np.random.default_rng(4)
        all_but_one = small_space.sample(rng, small_space.cardinality - 1)
        (last,) = small_space.sample(rng, 1, exclude=all_but_one)
        assert last not in set(all_but_one)

    def test_uniformity_rough(self):
        space = SearchSpace([IntegerParameter("a", 0, 3)])
        rng = np.random.default_rng(5)
        counts = np.zeros(4)
        for _ in range(800):
            counts[space.sample(rng, 1)[0].index] += 1
        assert counts.min() > 120  # roughly uniform (expected 200 each)


class TestEncodeIndices:
    """``encode_indices`` (the bulk pool-scoring path) against its
    obviously-correct twin, ``encode_many`` over ``config_at``."""

    @pytest.mark.parametrize("problem", PROBLEMS)
    def test_matches_config_at_encoding(self, problem):
        space = build_problem(problem)[0].space
        rng = np.random.default_rng(list(PROBLEMS).index(problem))
        # Random indices (RT's space exceeds 2**62, so it also covers
        # the per-row big-integer path), both ends of the range, and a
        # repeat.
        indices = space.sample_indices(rng, 300)
        indices += [0, space.cardinality - 1, indices[0]]
        np.testing.assert_array_equal(
            space.encode_indices(indices),
            space.encode_many([space.config_at(i) for i in indices]),
        )

    def test_empty_indices(self, small_space):
        assert small_space.encode_indices([]).shape == (0, small_space.dimension)

    def test_out_of_range_rejected(self, small_space):
        with pytest.raises(SearchSpaceError):
            small_space.encode_indices([small_space.cardinality])
        with pytest.raises(SearchSpaceError):
            small_space.encode_indices([-1])
