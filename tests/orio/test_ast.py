"""Tests for the loop-nest IR."""

import pytest

from repro.errors import TransformError
from repro.orio.ast import (
    ArrayRef,
    Assign,
    BinOp,
    ForLoop,
    IntLit,
    MaxExpr,
    MinExpr,
    Var,
    affine_coefficients,
    fold,
    loop_chain,
    shift_var,
    substitute,
)


def make_loop(var="i", lo=0, hi=10, step=1, body=None, unroll=1):
    if body is None:
        body = (Assign(ArrayRef("A", (Var(var),)), IntLit(1)),)
    return ForLoop(var=var, lower=IntLit(lo), upper=IntLit(hi), step=step,
                   body=tuple(body), unroll=unroll)


class TestFold:
    def test_constant_arithmetic(self):
        e = BinOp("+", BinOp("*", IntLit(3), IntLit(4)), IntLit(5))
        assert fold(e) == IntLit(17)

    def test_binding_substitution(self):
        e = BinOp("-", Var("N"), IntLit(1))
        assert fold(e, {"N": 2000}) == IntLit(1999)

    def test_identities(self):
        assert fold(BinOp("+", Var("i"), IntLit(0))) == Var("i")
        assert fold(BinOp("*", IntLit(1), Var("i"))) == Var("i")
        assert fold(BinOp("*", IntLit(0), Var("i"))) == IntLit(0)

    def test_integer_division(self):
        assert fold(BinOp("/", IntLit(7), IntLit(2))) == IntLit(3)
        with pytest.raises(TransformError):
            fold(BinOp("/", IntLit(1), IntLit(0)))

    def test_min_max_folding(self):
        assert fold(MinExpr(IntLit(3), IntLit(7))) == IntLit(3)
        assert fold(MaxExpr(IntLit(3), IntLit(7))) == IntLit(7)
        # Equal branches collapse even when symbolic.
        assert fold(MinExpr(Var("x"), Var("x"))) == Var("x")

    def test_array_ref_indices_folded(self):
        ref = ArrayRef("A", (BinOp("+", IntLit(2), IntLit(3)),))
        assert fold(ref) == ArrayRef("A", (IntLit(5),))


class TestSubstituteShift:
    def test_substitute(self):
        e = BinOp("+", Var("i"), Var("j"))
        assert substitute(e, "i", IntLit(5)) == BinOp("+", IntLit(5), Var("j"))

    def test_shift_assign(self):
        stmt = Assign(ArrayRef("A", (Var("i"),)), ArrayRef("B", (Var("i"),)))
        shifted = shift_var(stmt, "i", 2)
        assert "(i + 2)" in str(shifted)

    def test_shift_zero_is_identity(self):
        stmt = Assign(ArrayRef("A", (Var("i"),)), IntLit(1))
        assert shift_var(stmt, "i", 0) is stmt

    def test_shift_respects_rebinding(self):
        inner = make_loop("i", 0, 4)
        # Shifting over 'i' must not alter the loop that rebinds 'i'.
        assert shift_var(inner, "i", 3) is inner

    def test_shift_inner_loop_bounds(self):
        inner = ForLoop("j", Var("i"), BinOp("+", Var("i"), IntLit(4)), 1,
                        (Assign(ArrayRef("A", (Var("j"),)), IntLit(1)),))
        shifted = shift_var(inner, "i", 2)
        assert isinstance(shifted, ForLoop)
        assert fold(shifted.lower, {"i": 0}) == IntLit(2)


class TestAffineCoefficients:
    def test_flat_2d_index(self):
        # A[i*N+j] with N=100 folded in.
        e = BinOp("+", BinOp("*", Var("i"), IntLit(100)), Var("j"))
        coefs, const = affine_coefficients(e, ["i", "j"])
        assert coefs == {"i": 100, "j": 1}
        assert const == 0

    def test_constant_offset(self):
        e = BinOp("+", Var("i"), IntLit(7))
        coefs, const = affine_coefficients(e, ["i"])
        assert coefs == {"i": 1}
        assert const == 7

    def test_cancellation_dropped(self):
        e = BinOp("-", Var("i"), Var("i"))
        coefs, _ = affine_coefficients(e, ["i"])
        assert coefs == {}

    def test_nonaffine_rejected(self):
        e = BinOp("*", Var("i"), Var("j"))
        with pytest.raises(TransformError):
            affine_coefficients(e, ["i", "j"])

    def test_free_symbol_rejected(self):
        with pytest.raises(TransformError):
            affine_coefficients(Var("N"), ["i"])


class TestLoopStructure:
    def test_loop_chain_perfect_nest(self):
        nest = make_loop("i", body=(make_loop("j", body=(make_loop("k"),)),))
        chain = loop_chain(nest)
        assert [l.var for l in chain] == ["i", "j", "k"]

    def test_loop_chain_stops_at_multi_statement_body(self):
        body = (Assign(Var("t"), IntLit(0)), make_loop("j"))
        nest = make_loop("i", body=body)
        assert [l.var for l in loop_chain(nest)] == ["i"]

    def test_trip_count(self):
        assert make_loop(lo=0, hi=10).trip_count() == 10
        assert make_loop(lo=0, hi=10, step=3).trip_count() == 4
        assert make_loop(lo=5, hi=5).trip_count() == 0

    def test_trip_count_needs_constant_bounds(self):
        loop = ForLoop("i", IntLit(0), Var("N"), 1,
                       (Assign(Var("t"), IntLit(0)),))
        with pytest.raises(TransformError):
            loop.trip_count()


class TestValidation:
    def test_invalid_operator(self):
        with pytest.raises(TransformError):
            BinOp("**", IntLit(1), IntLit(2))

    def test_invalid_assign_op(self):
        with pytest.raises(TransformError):
            Assign(Var("x"), IntLit(1), op="-=")

    def test_loop_requires_positive_step(self):
        with pytest.raises(TransformError):
            make_loop(step=0)

    def test_loop_requires_body(self):
        with pytest.raises(TransformError):
            ForLoop("i", IntLit(0), IntLit(4), 1, ())

    def test_loop_requires_positive_unroll(self):
        with pytest.raises(TransformError):
            make_loop(unroll=0)
