"""Tests for the C generator and the reference interpreter."""

import numpy as np
import pytest

from repro.errors import EvaluationError
from repro.orio.ast import ArrayRef, Assign, BinOp, ForLoop, IntLit, MinExpr, Var
from repro.orio.codegen import emit_expr, emit_stmt, generate_c
from repro.orio.parser import parse_loop_nest, parse_statement
from repro.orio.transforms import UnrollJam, tile_nest
from tests.orio.interp import eval_expr, run_nest

MM_SRC = """
for (i = 0; i <= N-1; i++)
  for (j = 0; j <= N-1; j++)
    C[i*N+j] = C[i*N+j] + A[i*N+j];
"""


class TestEmitExpr:
    def test_minimal_parentheses(self):
        e = BinOp("+", BinOp("*", Var("a"), Var("b")), Var("c"))
        assert emit_expr(e) == "a * b + c"

    def test_required_parentheses(self):
        e = BinOp("*", BinOp("+", Var("a"), Var("b")), Var("c"))
        assert emit_expr(e) == "(a + b) * c"

    def test_subtraction_right_assoc_parens(self):
        e = BinOp("-", Var("a"), BinOp("-", Var("b"), Var("c")))
        assert emit_expr(e) == "a - (b - c)"

    def test_min_macro(self):
        e = MinExpr(Var("a"), IntLit(3))
        assert emit_expr(e) == "min(a, 3)"

    def test_array_ref(self):
        e = ArrayRef("A", (BinOp("+", Var("i"), IntLit(1)),))
        assert emit_expr(e) == "A[i + 1]"


class TestEmitStmt:
    def test_assignment(self):
        lines = emit_stmt(parse_statement("x = a + 1;"))
        assert lines == ["x = a + 1;"]

    def test_loop_without_braces_for_single_nested_loop(self):
        nest = parse_loop_nest(MM_SRC, consts={"N": 4})
        text = "\n".join(emit_stmt(nest))
        assert text.count("{") == 0  # perfect nest needs no braces

    def test_loop_with_braces_for_multi_statement_body(self):
        loop = parse_loop_nest("for (i = 0; i < 4; i++) { A[i] = 0; B[i] = 1; }")
        text = "\n".join(emit_stmt(loop))
        assert "{" in text and "}" in text

    def test_step_increment_form(self):
        loop = parse_loop_nest("for (i = 0; i < 8; i += 2) A[i] = 0;")
        header = emit_stmt(loop)[0]
        assert "i += 2" in header
        loop1 = parse_loop_nest("for (i = 0; i < 8; i++) A[i] = 0;")
        assert "i++" in emit_stmt(loop1)[0]


class TestGenerateC:
    def test_prelude_and_declarations(self):
        nest = parse_loop_nest(MM_SRC, consts={"N": 4})
        code = generate_c(nest, declare={"i": "int", "j": "int"})
        assert "#define min" in code
        assert "int i, j;" in code

    def test_unrolls_materialized(self):
        nest = parse_loop_nest(MM_SRC, consts={"N": 4})
        unrolled = UnrollJam("j", 2).apply(nest)
        code = generate_c(unrolled)
        # Two copies of the body with j and (j + 1) indices.
        assert "j + 1" in code

    def test_tiled_code_contains_min_and_max(self):
        src = """
        for (k = 0; k <= N-1; k++)
          for (i = k+1; i <= N-1; i++)
            A[i*N+k] = A[i*N+k] - 1;
        """
        nest = parse_loop_nest(src, consts={"N": 16})
        tiled = tile_nest(nest, {"k": 4, "i": 4})
        code = generate_c(tiled)
        assert "min(" in code and "max(" in code

    def test_size_guard(self):
        nest = parse_loop_nest(MM_SRC, consts={"N": 4})
        big = UnrollJam("i", 4).apply(UnrollJam("j", 4).apply(nest))
        from repro.errors import TransformError

        with pytest.raises(TransformError):
            generate_c(big, max_statements=5)

    def test_no_expansion_mode(self):
        nest = parse_loop_nest(MM_SRC, consts={"N": 4})
        unrolled = UnrollJam("j", 4).apply(nest)
        code = generate_c(unrolled, expand_unrolls=False)
        assert "j + 3" not in code  # kept symbolic


class TestInterpreter:
    def test_expression_evaluation(self):
        env = {"i": 3}
        arrays = {"A": np.array([10.0, 20.0, 30.0, 40.0])}
        assert eval_expr(ArrayRef("A", (Var("i"),)), env, arrays) == 40.0

    def test_c_integer_division(self):
        assert eval_expr(BinOp("/", IntLit(7), IntLit(2)), {}, {}) == 3
        assert eval_expr(BinOp("/", IntLit(-7), IntLit(2)), {}, {}) == -3

    def test_c_modulo(self):
        assert eval_expr(BinOp("%", IntLit(7), IntLit(3)), {}, {}) == 1
        assert eval_expr(BinOp("%", IntLit(-7), IntLit(3)), {}, {}) == -1

    def test_division_by_zero(self):
        with pytest.raises(EvaluationError):
            eval_expr(BinOp("/", IntLit(1), IntLit(0)), {}, {})

    def test_unbound_names(self):
        with pytest.raises(EvaluationError):
            eval_expr(Var("nope"), {}, {})
        with pytest.raises(EvaluationError):
            eval_expr(ArrayRef("nope", (IntLit(0),)), {}, {})

    def test_out_of_bounds(self):
        arrays = {"A": np.zeros(2)}
        with pytest.raises(EvaluationError):
            eval_expr(ArrayRef("A", (IntLit(5),)), {}, arrays)

    def test_run_nest_mm(self):
        nest = parse_loop_nest(MM_SRC, consts={"N": 3})
        A = np.arange(9, dtype=float)
        C = np.zeros(9)
        run_nest(nest, {"A": A, "C": C})
        np.testing.assert_array_equal(C, A)

    def test_scalar_accumulator(self):
        stmt = parse_loop_nest("for (i = 0; i < 5; i++) s += 2;")
        env = run_nest(stmt, {}, scalars={"s": 0})
        assert env["s"] == 10

    def test_loop_variable_scoping(self):
        stmt = parse_loop_nest("for (i = 0; i < 3; i++) A[i] = i;")
        env = run_nest(stmt, {"A": np.zeros(3)})
        assert "i" not in env  # loop variable restored/removed

    def test_multi_dim_arrays(self):
        stmt = parse_statement("A[1][2] = 7;")
        arrays = {"A": np.zeros((3, 3))}
        run_nest(stmt, arrays)
        assert arrays["A"][1, 2] == 7.0
