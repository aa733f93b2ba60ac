"""A reference interpreter for the loop-nest IR.

Used by the test suite to prove that the source-level transformations
are *semantics-preserving*: the transformed nest, executed on small
arrays, must produce bit-identical results to the original.  Runtime
performance does not matter here; correctness does.  Its access hook
also feeds the analysis ground-truth oracle and the cache simulator
(``tests/perf/cachesim.py``).  Nothing in the library runs it, so it
lives with the tests.
"""

from __future__ import annotations

from typing import Callable, Mapping, MutableMapping

import numpy as np

from repro.errors import EvaluationError
from repro.orio.ast import (
    ArrayRef,
    Assign,
    BinOp,
    Expr,
    ForLoop,
    IntLit,
    MaxExpr,
    MinExpr,
    Stmt,
    Var,
)

__all__ = ["run_nest", "eval_expr"]


AccessHook = Callable[[str, int, bool], None]
"""Callback for memory accesses: (array name, flat element index, is_write)."""


def eval_expr(
    expr: Expr,
    scalars: Mapping[str, float],
    arrays: Mapping[str, np.ndarray],
    on_access: AccessHook | None = None,
):
    """Evaluate an expression in the given environment.

    Integer arithmetic follows C semantics for the index computations
    (``/`` truncates); floating-point values flow through unchanged.
    """
    if isinstance(expr, IntLit):
        return expr.value
    if isinstance(expr, Var):
        try:
            return scalars[expr.name]
        except KeyError:
            raise EvaluationError(f"unbound scalar {expr.name!r}") from None
    if isinstance(expr, BinOp):
        a = eval_expr(expr.left, scalars, arrays, on_access)
        b = eval_expr(expr.right, scalars, arrays, on_access)
        if expr.op == "+":
            return a + b
        if expr.op == "-":
            return a - b
        if expr.op == "*":
            return a * b
        if expr.op == "/":
            if isinstance(a, (int, np.integer)) and isinstance(b, (int, np.integer)):
                if b == 0:
                    raise EvaluationError("integer division by zero")
                q = abs(a) // abs(b)  # C truncates toward zero
                return q if (a >= 0) == (b >= 0) else -q
            return a / b
        if expr.op == "%":
            if b == 0:
                raise EvaluationError("modulo by zero")
            # np.fmod truncates toward zero, matching C's % for integers.
            return int(np.fmod(a, b))
        raise EvaluationError(f"unknown operator {expr.op!r}")
    if isinstance(expr, MinExpr):
        return min(eval_expr(expr.left, scalars, arrays, on_access),
                   eval_expr(expr.right, scalars, arrays, on_access))
    if isinstance(expr, MaxExpr):
        return max(eval_expr(expr.left, scalars, arrays, on_access),
                   eval_expr(expr.right, scalars, arrays, on_access))
    if isinstance(expr, ArrayRef):
        arr = _array(arrays, expr.name)
        idx = tuple(int(eval_expr(i, scalars, arrays, on_access)) for i in expr.indices)
        try:
            value = arr[idx if len(idx) > 1 else idx[0]]
        except IndexError:
            raise EvaluationError(f"index {idx} out of bounds for array {expr.name!r}") from None
        if on_access is not None:
            flat = int(np.ravel_multi_index(idx, arr.shape)) if len(idx) > 1 else idx[0]
            on_access(expr.name, flat, False)
        return value
    raise EvaluationError(f"cannot evaluate {expr!r}")


def _array(arrays: Mapping[str, np.ndarray], name: str) -> np.ndarray:
    try:
        return arrays[name]
    except KeyError:
        raise EvaluationError(f"unbound array {name!r}") from None


def _exec(
    stmt: Stmt,
    scalars: MutableMapping[str, float],
    arrays: Mapping[str, np.ndarray],
    on_access: AccessHook | None = None,
) -> None:
    if isinstance(stmt, Assign):
        value = eval_expr(stmt.value, scalars, arrays, on_access)
        target = stmt.target
        if isinstance(target, Var):
            if stmt.op == "+=":
                scalars[target.name] = scalars.get(target.name, 0) + value
            else:
                scalars[target.name] = value
            return
        arr = _array(arrays, target.name)
        idx = tuple(int(eval_expr(i, scalars, arrays, on_access)) for i in target.indices)
        key = idx if len(idx) > 1 else idx[0]
        try:
            if stmt.op == "+=":
                arr[key] += value
            else:
                arr[key] = value
        except IndexError:
            raise EvaluationError(f"index {idx} out of bounds for array {target.name!r}") from None
        if on_access is not None:
            flat = int(np.ravel_multi_index(idx, arr.shape)) if len(idx) > 1 else key
            on_access(target.name, flat, True)
        return
    if isinstance(stmt, ForLoop):
        # The unroll attribute does not change semantics; execute plainly.
        lo = int(eval_expr(stmt.lower, scalars, arrays))
        hi = int(eval_expr(stmt.upper, scalars, arrays))
        saved = scalars.get(stmt.var, None)
        v = lo
        while v < hi:
            scalars[stmt.var] = v
            for s in stmt.body:
                _exec(s, scalars, arrays, on_access)
            # Re-read in case an inner statement (never in our kernels)
            # modified the induction variable; C forbids it, so do we.
            if scalars[stmt.var] != v:
                raise EvaluationError(f"loop variable {stmt.var!r} modified in body")
            v += stmt.step
        if saved is None:
            scalars.pop(stmt.var, None)
        else:
            scalars[stmt.var] = saved
        return
    raise EvaluationError(f"cannot execute {stmt!r}")


def run_nest(
    stmt: Stmt | list[Stmt],
    arrays: Mapping[str, np.ndarray],
    scalars: Mapping[str, float] | None = None,
    on_access: AccessHook | None = None,
) -> dict[str, float]:
    """Execute statements, mutating ``arrays`` in place.

    Returns the final scalar environment (useful for scalar
    accumulators).  ``on_access`` receives every array element touch
    (name, flat index, is_write) — the hook behind the trace-driven
    cache simulator that validates the analytic traffic model.
    """
    env: dict[str, float] = dict(scalars or {})
    stmts = stmt if isinstance(stmt, list) else [stmt]
    for s in stmts:
        _exec(s, env, arrays, on_access)
    return env
