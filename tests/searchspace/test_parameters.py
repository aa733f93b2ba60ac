"""Tests for the parameter primitives."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SearchSpaceError
from repro.searchspace.parameters import (
    BooleanParameter,
    EnumParameter,
    IntegerParameter,
    PowerOfTwoParameter,
)


class TestIntegerParameter:
    def test_table1_unroll_range(self):
        # Table I: loop unrolling 1, ..., 31, 32.
        p = IntegerParameter("U_I", 1, 32)
        assert p.cardinality == 32
        assert p.value_at(0) == 1
        assert p.value_at(31) == 32

    def test_roundtrip(self):
        p = IntegerParameter("u", 3, 9)
        for i in range(p.cardinality):
            assert p.index_of(p.value_at(i)) == i

    def test_out_of_domain(self):
        p = IntegerParameter("u", 1, 4)
        with pytest.raises(SearchSpaceError):
            p.index_of(5)
        with pytest.raises(SearchSpaceError):
            p.index_of(2.5)

    def test_index_out_of_range(self):
        with pytest.raises(SearchSpaceError):
            IntegerParameter("u", 1, 4).value_at(4)

    def test_empty_range_rejected(self):
        with pytest.raises(SearchSpaceError):
            IntegerParameter("u", 5, 4)

    def test_encode_is_value(self):
        assert IntegerParameter("u", 1, 32).encode(7) == 7.0

    def test_mutate_changes_value(self):
        p = IntegerParameter("u", 1, 32)
        rng = np.random.default_rng(0)
        for _ in range(50):
            assert p.mutate(16, rng) != 16

    def test_mutate_stays_in_domain(self):
        p = IntegerParameter("u", 1, 8)
        rng = np.random.default_rng(1)
        for _ in range(100):
            v = p.mutate(1, rng, scale=5.0)
            assert 1 <= v <= 8

    def test_mutate_singleton_returns_value(self):
        p = IntegerParameter("u", 3, 3)
        assert p.mutate(3, np.random.default_rng(0)) == 3

    @given(st.integers(-50, 50), st.integers(0, 60))
    def test_property_roundtrip(self, low, span):
        p = IntegerParameter("u", low, low + span)
        idx = span // 2
        assert p.index_of(p.value_at(idx)) == idx


class TestPowerOfTwoParameter:
    def test_table1_cache_tiling_range(self):
        # Table I: cache tiling 2^0, ..., 2^10, 2^11.
        p = PowerOfTwoParameter("T_I", 0, 11)
        assert p.cardinality == 12
        assert p.values() == [2**e for e in range(12)]

    def test_table1_register_tiling_range(self):
        # Table I: register tiling 2^0, ..., 2^4, 2^5.
        p = PowerOfTwoParameter("RT_I", 0, 5)
        assert p.cardinality == 6
        assert p.value_at(5) == 32

    def test_encode_is_exponent(self):
        p = PowerOfTwoParameter("t", 0, 11)
        assert p.encode(1024) == 10.0

    def test_rejects_non_power(self):
        p = PowerOfTwoParameter("t", 0, 5)
        with pytest.raises(SearchSpaceError):
            p.index_of(3)
        with pytest.raises(SearchSpaceError):
            p.index_of(0)
        with pytest.raises(SearchSpaceError):
            p.index_of(64)

    def test_negative_exponent_rejected(self):
        with pytest.raises(SearchSpaceError):
            PowerOfTwoParameter("t", -1, 4)

    def test_sample_in_domain(self):
        p = PowerOfTwoParameter("t", 2, 6)
        rng = np.random.default_rng(0)
        for _ in range(30):
            value = p.sample(rng)
            assert p.value_at(p.index_of(value)) == value

    @given(st.integers(0, 10), st.integers(0, 10))
    def test_property_roundtrip(self, lo, span):
        p = PowerOfTwoParameter("t", lo, lo + span)
        for i in range(p.cardinality):
            assert p.index_of(p.value_at(i)) == i


class TestBooleanParameter:
    def test_domain(self):
        p = BooleanParameter("omp")
        assert p.values() == [False, True]

    def test_mutate_flips(self):
        p = BooleanParameter("omp")
        assert p.mutate(True, np.random.default_rng(0)) is False

    def test_rejects_int(self):
        with pytest.raises(SearchSpaceError):
            BooleanParameter("omp").index_of(1)

    def test_encode(self):
        p = BooleanParameter("omp")
        assert p.encode(True) == 1.0
        assert p.encode(False) == 0.0


class TestEnumParameter:
    def test_roundtrip(self):
        p = EnumParameter("bcast", ["1ring", "1ringM", "2ring", "2ringM", "long", "longM"])
        assert p.cardinality == 6
        for i in range(6):
            assert p.index_of(p.value_at(i)) == i

    def test_rejects_unknown(self):
        with pytest.raises(SearchSpaceError):
            EnumParameter("e", ["a", "b"]).index_of("c")

    def test_rejects_duplicates(self):
        with pytest.raises(SearchSpaceError):
            EnumParameter("e", ["a", "a"])

    def test_rejects_empty(self):
        with pytest.raises(SearchSpaceError):
            EnumParameter("e", [])

    def test_mutate_never_returns_same(self):
        p = EnumParameter("e", ["a", "b", "c"])
        rng = np.random.default_rng(0)
        for _ in range(60):
            assert p.mutate("b", rng) in ("a", "c")


class TestCommon:
    def test_invalid_names(self):
        for bad in ("", "a b", "x,y", "p=1"):
            with pytest.raises(SearchSpaceError):
                IntegerParameter(bad, 0, 1)

    def test_equality(self):
        assert IntegerParameter("u", 1, 4) == IntegerParameter("u", 1, 4)
        assert IntegerParameter("u", 1, 4) != IntegerParameter("u", 1, 5)
        assert IntegerParameter("u", 1, 2) != BooleanParameter("u")

    def test_repr_mentions_name(self):
        assert "U_I" in repr(IntegerParameter("U_I", 1, 32))
