"""C source emission for transformed loop nests.

Orio's pipeline ends by writing a C file per variant and compiling it;
this generator produces that file's compute section.  Unroll factors
are materialized into real replicated statements with remainder loops
(:func:`~repro.orio.transforms.unroll.expand_all_unrolls`), so the
emitted code is exactly what a compiler would see.
"""

from __future__ import annotations

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
from repro.orio.transforms.unroll import expand_all_unrolls

__all__ = ["generate_c", "emit_expr", "emit_stmt"]

_PRELUDE = (
    "#ifndef min\n#define min(a, b) (((a) < (b)) ? (a) : (b))\n#endif\n"
    "#ifndef max\n#define max(a, b) (((a) > (b)) ? (a) : (b))\n#endif\n"
)

_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "%": 2}


def emit_expr(expr: Expr, parent_prec: int = 0) -> str:
    """Render an expression with minimal parentheses."""
    if isinstance(expr, IntLit):
        return str(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, ArrayRef):
        return expr.name + "".join(f"[{emit_expr(i)}]" for i in expr.indices)
    if isinstance(expr, MinExpr):
        return f"min({emit_expr(expr.left)}, {emit_expr(expr.right)})"
    if isinstance(expr, MaxExpr):
        return f"max({emit_expr(expr.left)}, {emit_expr(expr.right)})"
    if isinstance(expr, BinOp):
        prec = _PRECEDENCE[expr.op]
        left = emit_expr(expr.left, prec)
        # Right operand of -, / and % needs parens at equal precedence.
        right = emit_expr(expr.right, prec + (0 if expr.op in "+*" else 1))
        text = f"{left} {expr.op} {right}"
        if prec < parent_prec:
            return f"({text})"
        return text
    raise TypeError(f"cannot emit {expr!r}")


def emit_stmt(stmt: Stmt, indent: int = 0) -> list[str]:
    """Render a statement subtree as indented C lines."""
    pad = "  " * indent
    if isinstance(stmt, Assign):
        return [f"{pad}{emit_expr(stmt.target)} {stmt.op} {emit_expr(stmt.value)};"]
    if isinstance(stmt, ForLoop):
        lines = [f"{pad}{p}" for p in stmt.pragmas]
        header = (
            f"{pad}for ({stmt.var} = {emit_expr(stmt.lower)}; "
            f"{stmt.var} < {emit_expr(stmt.upper)}; "
            + (f"{stmt.var}++)" if stmt.step == 1 else f"{stmt.var} += {stmt.step})")
        )
        body_lines: list[str] = []
        for s in stmt.body:
            body_lines.extend(emit_stmt(s, indent + 1))
        if len(stmt.body) == 1:
            return lines + [header] + body_lines
        return lines + [header + " {"] + body_lines + [f"{pad}}}"]
    raise TypeError(f"cannot emit {stmt!r}")


def generate_c(
    nest: Stmt,
    declare: dict[str, str] | None = None,
    max_statements: int = 100_000,
) -> str:
    """Generate the C text for a (possibly unrolled) nest.

    ``declare`` optionally maps loop-variable names to C types for an
    ``int i, j, ...;`` declaration line.
    """
    stmts = expand_all_unrolls(nest, max_statements=max_statements)
    lines = [_PRELUDE]
    if declare:
        by_type: dict[str, list[str]] = {}
        for name, ctype in declare.items():
            by_type.setdefault(ctype, []).append(name)
        for ctype, names in sorted(by_type.items()):
            lines.append(f"{ctype} {', '.join(sorted(names))};")
        lines.append("")
    for s in stmts:
        lines.extend(emit_stmt(s))
    return "\n".join(lines) + "\n"
