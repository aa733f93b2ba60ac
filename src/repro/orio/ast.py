"""Loop-nest intermediate representation.

The IR models the subset of C the SPAPT kernels use: perfect (or
near-perfect) ``for`` nests over affine array accesses.  Expressions
are immutable trees; statements form the loop structure.  A ``ForLoop``
carries an ``unroll`` attribute representing unroll-and-jam: the loop
semantically executes ``unroll`` copies of its body per iteration (with
the induction variable offset by ``k*step``) plus a remainder loop.
Code generation expands the copies; analysis reads the factor directly,
so a 32x32x32-way unrolled nest never has to be materialized to be
costed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence, Union

from repro.errors import TransformError

__all__ = [
    "Expr",
    "IntLit",
    "Var",
    "BinOp",
    "MinExpr",
    "MaxExpr",
    "ArrayRef",
    "Stmt",
    "Assign",
    "ForLoop",
    "fold",
    "substitute",
    "shift_var",
    "affine_coefficients",
    "loop_chain",
]


# ----------------------------------------------------------------------
# Expressions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class IntLit:
    value: int

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class Var:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class BinOp:
    op: str  # + - * / %
    left: "Expr"
    right: "Expr"

    def __post_init__(self) -> None:
        if self.op not in ("+", "-", "*", "/", "%"):
            raise TransformError(f"unsupported operator {self.op!r}")

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class MinExpr:
    """C ``min(a, b)`` — appears in tile-loop upper bounds."""

    left: "Expr"
    right: "Expr"

    def __str__(self) -> str:
        return f"min({self.left}, {self.right})"


@dataclass(frozen=True)
class MaxExpr:
    """C ``max(a, b)`` — appears in tiled triangular-loop lower bounds."""

    left: "Expr"
    right: "Expr"

    def __str__(self) -> str:
        return f"max({self.left}, {self.right})"


@dataclass(frozen=True)
class ArrayRef:
    """``name[idx0][idx1]...`` — usable as an expression or lvalue."""

    name: str
    indices: tuple["Expr", ...]

    def __str__(self) -> str:
        return self.name + "".join(f"[{i}]" for i in self.indices)


Expr = Union[IntLit, Var, BinOp, MinExpr, MaxExpr, ArrayRef]


# ----------------------------------------------------------------------
# Statements
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Assign:
    """``target op value;`` where op is ``=`` or ``+=``."""

    target: Union[ArrayRef, Var]
    value: Expr
    op: str = "="

    def __post_init__(self) -> None:
        if self.op not in ("=", "+="):
            raise TransformError(f"unsupported assignment operator {self.op!r}")

    def __str__(self) -> str:
        return f"{self.target} {self.op} {self.value};"


@dataclass(frozen=True)
class ForLoop:
    """``for (var = lower; var < upper; var += step)`` with unroll-jam.

    ``upper`` is *exclusive*.  ``unroll > 1`` means the loop body is
    semantically replicated ``unroll`` times per iteration with ``var``
    offsets ``0, step, ..., (unroll-1)*step``, followed by a remainder
    loop when the trip count is not divisible.
    """

    var: str
    lower: Expr
    upper: Expr
    step: int
    body: tuple["Stmt", ...]
    unroll: int = 1
    pragmas: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.step < 1:
            raise TransformError(f"loop {self.var}: step must be >= 1, got {self.step}")
        if self.unroll < 1:
            raise TransformError(f"loop {self.var}: unroll must be >= 1, got {self.unroll}")
        if not self.body:
            raise TransformError(f"loop {self.var}: empty body")

    def with_body(self, body: Sequence["Stmt"]) -> "ForLoop":
        return replace(self, body=tuple(body))

    def trip_count(self) -> int:
        """Number of iterations of the *original* (pre-unroll) loop.

        Requires constant-foldable bounds; tile loops with ``min()``
        upper bounds report the full-tile trip count.
        """
        lo = fold(self.lower)
        hi = fold(self.upper)
        if not isinstance(lo, IntLit) or not isinstance(hi, IntLit):
            raise TransformError(
                f"loop {self.var}: bounds are not constant ({self.lower} .. {self.upper})"
            )
        span = hi.value - lo.value
        return max(0, -(-span // self.step))


Stmt = Union[Assign, ForLoop]


# ----------------------------------------------------------------------
# Expression utilities
# ----------------------------------------------------------------------
def fold(expr: Expr, bindings: Mapping[str, int] | None = None) -> Expr:
    """Constant-fold, substituting ``bindings`` for free variables."""
    if isinstance(expr, IntLit):
        return expr
    if isinstance(expr, Var):
        if bindings and expr.name in bindings:
            return IntLit(int(bindings[expr.name]))
        return expr
    if isinstance(expr, BinOp):
        left = fold(expr.left, bindings)
        right = fold(expr.right, bindings)
        if isinstance(left, IntLit) and isinstance(right, IntLit):
            a, b = left.value, right.value
            if expr.op == "+":
                return IntLit(a + b)
            if expr.op == "-":
                return IntLit(a - b)
            if expr.op == "*":
                return IntLit(a * b)
            if expr.op == "/":
                if b == 0:
                    raise TransformError("division by zero in constant fold")
                return IntLit(a // b)
            if b == 0:
                raise TransformError("modulo by zero in constant fold")
            return IntLit(a % b)
        # Algebraic identities keep generated code readable.
        if expr.op == "+" and isinstance(right, IntLit) and right.value == 0:
            return left
        if expr.op == "+" and isinstance(left, IntLit) and left.value == 0:
            return right
        if expr.op == "*" and isinstance(right, IntLit) and right.value == 1:
            return left
        if expr.op == "*" and isinstance(left, IntLit) and left.value == 1:
            return right
        if expr.op == "*" and IntLit(0) in (left, right):
            return IntLit(0)
        return BinOp(expr.op, left, right)
    if isinstance(expr, MinExpr):
        left = fold(expr.left, bindings)
        right = fold(expr.right, bindings)
        if isinstance(left, IntLit) and isinstance(right, IntLit):
            return IntLit(min(left.value, right.value))
        if left == right:
            return left
        return MinExpr(left, right)
    if isinstance(expr, MaxExpr):
        left = fold(expr.left, bindings)
        right = fold(expr.right, bindings)
        if isinstance(left, IntLit) and isinstance(right, IntLit):
            return IntLit(max(left.value, right.value))
        if left == right:
            return left
        return MaxExpr(left, right)
    if isinstance(expr, ArrayRef):
        return ArrayRef(expr.name, tuple(fold(i, bindings) for i in expr.indices))
    raise TransformError(f"cannot fold {expr!r}")


def substitute(expr: Expr, var: str, replacement: Expr) -> Expr:
    """Replace every occurrence of ``var`` in ``expr`` with ``replacement``."""
    if isinstance(expr, IntLit):
        return expr
    if isinstance(expr, Var):
        return replacement if expr.name == var else expr
    if isinstance(expr, BinOp):
        return BinOp(expr.op, substitute(expr.left, var, replacement),
                     substitute(expr.right, var, replacement))
    if isinstance(expr, MinExpr):
        return MinExpr(substitute(expr.left, var, replacement),
                       substitute(expr.right, var, replacement))
    if isinstance(expr, MaxExpr):
        return MaxExpr(substitute(expr.left, var, replacement),
                       substitute(expr.right, var, replacement))
    if isinstance(expr, ArrayRef):
        return ArrayRef(expr.name, tuple(substitute(i, var, replacement) for i in expr.indices))
    raise TransformError(f"cannot substitute in {expr!r}")


def shift_var(stmt: Stmt, var: str, offset: int) -> Stmt:
    """Statement copy with ``var`` replaced by ``var + offset``."""
    if offset == 0:
        return stmt
    repl = BinOp("+", Var(var), IntLit(offset))

    def sub_expr(e: Expr) -> Expr:
        return fold(substitute(e, var, repl))

    if isinstance(stmt, Assign):
        target = sub_expr(stmt.target)
        if not isinstance(target, (ArrayRef, Var)):  # pragma: no cover - guarded
            raise TransformError("assignment target degenerated during shift")
        return Assign(target, sub_expr(stmt.value), stmt.op)
    if isinstance(stmt, ForLoop):
        if stmt.var == var:
            return stmt  # inner loop rebinds the name; nothing to shift
        return replace(
            stmt,
            lower=sub_expr(stmt.lower),
            upper=sub_expr(stmt.upper),
            body=tuple(shift_var(s, var, offset) for s in stmt.body),
        )
    raise TransformError(f"cannot shift {stmt!r}")


def affine_coefficients(expr: Expr, loop_vars: Sequence[str]) -> tuple[dict[str, int], int]:
    """Decompose an index expression as ``sum(coef[v] * v) + const``.

    Raises :class:`TransformError` for non-affine expressions (e.g.
    ``i*j``), which the SPAPT kernels never produce.
    """
    loop_set = set(loop_vars)

    def go(e: Expr) -> tuple[dict[str, int], int]:
        if isinstance(e, IntLit):
            return {}, e.value
        if isinstance(e, Var):
            if e.name in loop_set:
                return {e.name: 1}, 0
            raise TransformError(f"free symbol {e.name!r} in index (bind constants first)")
        if isinstance(e, BinOp):
            lc, lk = go(e.left)
            rc, rk = go(e.right)
            if e.op == "+":
                merged = dict(lc)
                for v, c in rc.items():
                    merged[v] = merged.get(v, 0) + c
                return merged, lk + rk
            if e.op == "-":
                merged = dict(lc)
                for v, c in rc.items():
                    merged[v] = merged.get(v, 0) - c
                return merged, lk - rk
            if e.op == "*":
                if lc and rc:
                    raise TransformError(f"non-affine index: {e}")
                if lc:
                    return {v: c * rk for v, c in lc.items()}, lk * rk
                return {v: c * lk for v, c in rc.items()}, lk * rk
            raise TransformError(f"non-affine operator {e.op!r} in index: {e}")
        raise TransformError(f"non-affine index component: {e}")

    coefs, const = go(fold(expr))
    return {v: c for v, c in coefs.items() if c != 0}, const


# ----------------------------------------------------------------------
# Structure utilities
# ----------------------------------------------------------------------
def loop_chain(stmt: Stmt) -> list[ForLoop]:
    """The chain of singly-nested loops from ``stmt`` inwards.

    Stops at the first body that is not exactly one ``ForLoop`` — the
    innermost compute body, for perfect nests.
    """
    chain: list[ForLoop] = []
    cur = stmt
    while isinstance(cur, ForLoop):
        chain.append(cur)
        if len(cur.body) == 1 and isinstance(cur.body[0], ForLoop):
            cur = cur.body[0]
        else:
            break
    return chain
