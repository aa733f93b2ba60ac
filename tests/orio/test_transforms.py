"""Tests for the loop transformations.

The heart of this file is *interpreter equivalence*: for every
transformation (and composition) applied to small MM/LU-style nests,
the transformed program — with unrolls fully materialized — must
compute bit-identical array contents to the original.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TransformError
from repro.orio.ast import ForLoop, loop_chain
from repro.orio.parser import parse_loop_nest
from repro.orio.transforms import (
    CacheTile,
    RegisterTile,
    UnrollJam,
    compose,
    expand_all_unrolls,
    tile_nest,
)
from repro.orio.transforms.pipeline import TransformPlan
from repro.orio.transforms.unroll import materialized_statements
from tests.orio.interp import run_nest

MM_SRC = """
for (i = 0; i <= N-1; i++)
  for (j = 0; j <= N-1; j++)
    for (k = 0; k <= N-1; k++)
      C[i*N+j] = C[i*N+j] + A[i*N+k] * B[k*N+j];
"""

LU_SRC = """
for (k = 0; k <= N-1; k++)
  for (i = k+1; i <= N-1; i++)
    for (j = k+1; j <= N-1; j++)
      A[i*N+j] = A[i*N+j] - A[i*N+k] * A[k*N+j];
"""

N = 7  # deliberately not a multiple of tile sizes: exercises remainders


def mm_arrays(seed=0):
    rng = np.random.default_rng(seed)
    return {
        "A": rng.normal(size=N * N),
        "B": rng.normal(size=N * N),
        "C": rng.normal(size=N * N),
    }


def lu_arrays(seed=0):
    rng = np.random.default_rng(seed)
    return {"A": rng.normal(size=N * N) + np.eye(N).ravel() * 10}


def run_and_compare(nest: ForLoop, transformed, arrays_factory):
    """Execute original and transformed nests; arrays must match."""
    ref = arrays_factory()
    run_nest(nest, ref)
    got = arrays_factory()
    stmts = expand_all_unrolls(transformed)
    run_nest(stmts, got)
    for name in ref:
        np.testing.assert_allclose(got[name], ref[name], rtol=0, atol=0,
                                   err_msg=f"array {name} diverged")


@pytest.fixture
def mm_nest():
    return parse_loop_nest(MM_SRC, consts={"N": N})


@pytest.fixture
def lu_nest():
    return parse_loop_nest(LU_SRC, consts={"N": N})


class TestCacheTile:
    def test_structure(self, mm_nest):
        tiled = tile_nest(mm_nest, {"i": 4, "j": 2, "k": 4})
        chain = loop_chain(tiled)
        assert [l.var for l in chain] == ["it", "jt", "kt", "i", "j", "k"]

    def test_tile_of_one_is_noop(self, mm_nest):
        assert tile_nest(mm_nest, {"i": 1}) is mm_nest

    def test_tile_covering_whole_loop_is_noop(self, mm_nest):
        assert tile_nest(mm_nest, {"i": N}) is mm_nest

    def test_unknown_variable_rejected(self, mm_nest):
        with pytest.raises(TransformError):
            tile_nest(mm_nest, {"z": 4})

    def test_invalid_size_rejected(self, mm_nest):
        with pytest.raises(TransformError):
            tile_nest(mm_nest, {"i": 0})

    def test_mm_equivalence(self, mm_nest):
        tiled = tile_nest(mm_nest, {"i": 4, "j": 3, "k": 2})
        run_and_compare(mm_nest, tiled, mm_arrays)

    def test_lu_triangular_equivalence(self, lu_nest):
        # The structurally hard case: tiling all three triangular loops.
        tiled = tile_nest(lu_nest, {"k": 2, "i": 4, "j": 3})
        run_and_compare(lu_nest, tiled, lu_arrays)

    def test_partial_tiling_equivalence(self, mm_nest):
        tiled = tile_nest(mm_nest, {"j": 4})
        run_and_compare(mm_nest, tiled, mm_arrays)

    def test_transform_object(self, mm_nest):
        tiled = CacheTile({"i": 2}).apply(mm_nest)
        assert loop_chain(tiled)[0].var == "it"


class TestUnrollJam:
    def test_sets_factor(self, mm_nest):
        unrolled = UnrollJam("k", 4).apply(mm_nest)
        chain = loop_chain(unrolled)
        assert chain[-1].unroll == 4

    def test_factor_one_is_noop(self, mm_nest):
        assert UnrollJam("k", 1).apply(mm_nest) is mm_nest

    def test_double_unroll_rejected(self, mm_nest):
        once = UnrollJam("k", 2).apply(mm_nest)
        with pytest.raises(TransformError):
            UnrollJam("k", 3).apply(once)

    def test_invalid_factor(self):
        with pytest.raises(TransformError):
            UnrollJam("k", 0)

    def test_divisible_equivalence(self, mm_nest):
        # N=7 is prime, so test inner unroll with remainder either way.
        unrolled = UnrollJam("k", 7).apply(mm_nest)
        run_and_compare(mm_nest, unrolled, mm_arrays)

    def test_remainder_equivalence(self, mm_nest):
        unrolled = UnrollJam("k", 3).apply(mm_nest)
        run_and_compare(mm_nest, unrolled, mm_arrays)

    def test_outer_unroll_equivalence(self, mm_nest):
        unrolled = UnrollJam("i", 2).apply(mm_nest)
        run_and_compare(mm_nest, unrolled, mm_arrays)

    def test_lu_sequential_loop_unroll_equivalence(self, lu_nest):
        unrolled = UnrollJam("k", 2).apply(lu_nest)
        run_and_compare(lu_nest, unrolled, lu_arrays)

    def test_materialized_statement_estimate_matches(self, mm_nest):
        unrolled = UnrollJam("k", 4).apply(mm_nest)
        stmts = expand_all_unrolls(unrolled)

        def count(node) -> int:
            if isinstance(node, ForLoop):
                return 1 + sum(count(s) for s in node.body)
            return 1

        actual = sum(count(s) for s in stmts)
        assert materialized_statements(unrolled) == actual

    def test_expansion_size_guard(self, mm_nest):
        big = UnrollJam("k", 7).apply(UnrollJam("j", 7).apply(UnrollJam("i", 7).apply(mm_nest)))
        with pytest.raises(TransformError):
            expand_all_unrolls(big, max_statements=50)


class TestRegisterTile:
    def test_structure(self, mm_nest):
        t = RegisterTile("j", 2)
        out = t.apply(mm_nest)
        assert t.strip_var == "jr"
        chain = loop_chain(out)
        assert [l.var for l in chain] == ["i", "jr", "j", "k"]
        j_loop = chain[2]
        assert j_loop.unroll == 2  # fully unrolled register block

    def test_factor_one_noop(self, mm_nest):
        t = RegisterTile("j", 1)
        assert t.apply(mm_nest) is mm_nest
        assert t.strip_var is None

    def test_equivalence(self, mm_nest):
        out = RegisterTile("j", 4).apply(mm_nest)
        run_and_compare(mm_nest, out, mm_arrays)

    def test_lu_equivalence(self, lu_nest):
        out = RegisterTile("i", 2).apply(lu_nest)
        run_and_compare(lu_nest, out, lu_arrays)


class TestCompose:
    def test_full_mm_composition_structure(self, mm_nest):
        plan = TransformPlan(
            tile={"i": 4, "j": 4, "k": 4},
            regtile={"i": 2, "j": 2, "k": 2},
            unroll={"i": 2, "j": 2, "k": 2},
        )
        variant = compose(mm_nest, plan)
        chain = loop_chain(variant.nest)
        roles = variant.roles
        assert roles["it"] == ("tile", "i")
        assert roles["ir"] == ("strip", "i")
        assert roles["i"] == ("point", "i")
        # Strip loops carry the unroll-jam factor.
        strips = [l for l in chain if roles[l.var][0] == "strip"]
        assert all(l.unroll == 2 for l in strips)

    def test_full_mm_composition_equivalence(self, mm_nest):
        plan = TransformPlan(
            tile={"i": 4, "j": 3, "k": 5},
            regtile={"i": 2, "j": 2},
            unroll={"k": 3},
        )
        variant = compose(mm_nest, plan)
        run_and_compare(mm_nest, variant.nest, mm_arrays)

    def test_full_lu_composition_equivalence(self, lu_nest):
        plan = TransformPlan(
            tile={"k": 4, "i": 2, "j": 4},
            regtile={"i": 2, "j": 2},
            unroll={"k": 2, "i": 2},
        )
        variant = compose(lu_nest, plan)
        run_and_compare(lu_nest, variant.nest, lu_arrays)

    def test_empty_plan_is_identity(self, mm_nest):
        variant = compose(mm_nest, TransformPlan())
        assert variant.nest is mm_nest

    @settings(max_examples=20, deadline=None)
    @given(
        ti=st.sampled_from([1, 2, 4, 8]),
        tj=st.sampled_from([1, 2, 4, 8]),
        tk=st.sampled_from([1, 2, 4, 8]),
        ri=st.sampled_from([1, 2, 4]),
        rj=st.sampled_from([1, 2, 4]),
        ui=st.integers(1, 4),
        uk=st.integers(1, 4),
    )
    def test_property_random_mm_compositions_preserve_semantics(
        self, ti, tj, tk, ri, rj, ui, uk
    ):
        nest = parse_loop_nest(MM_SRC, consts={"N": N})
        plan = TransformPlan(
            tile={"i": ti, "j": tj, "k": tk},
            regtile={"i": ri, "j": rj},
            unroll={"i": ui, "k": uk},
        )
        variant = compose(nest, plan)
        run_and_compare(nest, variant.nest, mm_arrays)

    @settings(max_examples=15, deadline=None)
    @given(
        tk=st.sampled_from([1, 2, 4]),
        ti=st.sampled_from([1, 2, 4]),
        tj=st.sampled_from([1, 2, 4]),
        rj=st.sampled_from([1, 2]),
        uk=st.integers(1, 3),
    )
    def test_property_random_lu_compositions_preserve_semantics(
        self, tk, ti, tj, rj, uk
    ):
        # Triangular bounds + every transformation: the hardest case.
        nest = parse_loop_nest(LU_SRC, consts={"N": N})
        plan = TransformPlan(
            tile={"k": tk, "i": ti, "j": tj},
            regtile={"j": rj},
            unroll={"k": uk},
        )
        variant = compose(nest, plan)
        run_and_compare(nest, variant.nest, lu_arrays)

    def test_missing_parameter_in_config(self, mm_nest):
        from repro.orio.annotations import TransformSpec

        spec = TransformSpec(tile=(("i", "T_I"),))
        with pytest.raises(TransformError):
            TransformPlan.from_spec(spec, {})

    def test_from_spec_binds_values(self, mm_nest):
        from repro.orio.annotations import TransformSpec

        spec = TransformSpec(
            tile=(("i", "T_I"),), unrolljam=(("k", "U_K"),), scalars={"vector": "VEC"}
        )
        plan = TransformPlan.from_spec(spec, {"T_I": 8, "U_K": 2, "VEC": True})
        assert plan.tile == {"i": 8}
        assert plan.unroll == {"k": 2}
        assert plan.scalars == {"vector": True}
