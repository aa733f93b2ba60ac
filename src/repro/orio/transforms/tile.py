"""Cache tiling (loop blocking).

Strip-mines the requested loops and hoists the resulting tile loops to
the outside of the nest, producing the classic blocked structure::

    for (it = 0; it < N; it += T_I)
      for (jt = 0; jt < N; jt += T_J)
        for (i = it; i < min(it + T_I, N); i++)
          for (j = jt; j < min(jt + T_J, N); j++)
            ...

Triangular nests (LU) are handled with the standard ``max``/``min``
bound adjustment: the tile loop covers the rectangular hull of the
iteration space and the point loop clamps back to the true triangular
bounds, so the transformed nest executes exactly the original
iterations (verified by the interpreter-based equivalence tests).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Mapping

from repro.errors import TransformError
from repro.orio.ast import (
    BinOp,
    Expr,
    ForLoop,
    IntLit,
    MaxExpr,
    MinExpr,
    Var,
    fold,
    loop_chain,
)
from repro.orio.transforms.base import collect_names, fresh_name

__all__ = ["tile_nest", "rectangular_hull"]


def _free_loop_vars(expr: Expr, loop_vars: set[str]) -> set[str]:
    """Loop variables appearing in an expression."""
    if isinstance(expr, Var):
        return {expr.name} & loop_vars
    if isinstance(expr, (BinOp, MinExpr, MaxExpr)):
        return _free_loop_vars(expr.left, loop_vars) | _free_loop_vars(expr.right, loop_vars)
    if isinstance(expr, IntLit):
        return set()
    raise TransformError(f"unexpected bound expression {expr!r}")


def rectangular_hull(chain: list[ForLoop]) -> dict[str, tuple[int, int]]:
    """Constant ``[lo, hi)`` hull of each loop's range.

    For triangular bounds that reference outer loop variables, the hull
    substitutes the extreme values of those variables, yielding the
    smallest machine-independent rectangle containing the iteration
    space.  Requires the outermost loop to have constant bounds.
    """
    hull: dict[str, tuple[int, int]] = {}
    for loop in chain:
        lo_min = fold(loop.lower, {v: lo for v, (lo, hi) in hull.items()})
        lo_alt = fold(loop.lower, {v: hi - 1 for v, (lo, hi) in hull.items()})
        hi_max = fold(loop.upper, {v: hi - 1 for v, (lo, hi) in hull.items()})
        hi_alt = fold(loop.upper, {v: lo for v, (lo, hi) in hull.items()})
        if not all(isinstance(e, IntLit) for e in (lo_min, lo_alt, hi_max, hi_alt)):
            raise TransformError(
                f"loop {loop.var}: bounds reference symbols outside the nest"
            )
        hull[loop.var] = (
            min(lo_min.value, lo_alt.value),
            max(hi_max.value, hi_alt.value),
        )
    return hull


def tile_nest(nest: ForLoop, tiles: Mapping[str, int]) -> ForLoop:
    """Tile the perfect loop chain of ``nest`` with the given sizes.

    Sizes of 1 (or at least the loop's full hull extent) are no-ops for
    that loop; Table I's tile range starts at ``2^0 = 1``, i.e. "no
    tiling".
    """
    chain = loop_chain(nest)
    chain_vars = {l.var for l in chain}
    for var, size in tiles.items():
        if var not in chain_vars:
            raise TransformError(f"cannot tile {var!r}: not in the perfect loop chain")
        if size < 1:
            raise TransformError(f"tile size for {var!r} must be >= 1, got {size}")
    hull = rectangular_hull(chain)

    effective: dict[str, int] = {}
    for loop in chain:
        size = int(tiles.get(loop.var, 1))
        lo, hi = hull[loop.var]
        extent = max(0, hi - lo)
        span = size * loop.step
        if size > 1 and span < extent:
            effective[loop.var] = size
    if not effective:
        return nest

    taken = collect_names(nest)
    tile_var = {v: fresh_name(f"{v}t", taken) for v in effective}

    # Point-loop bounds, outermost first, clamped for tiled vars.
    body = chain[-1].body
    point_bounds: list[tuple[ForLoop, Expr, Expr]] = []
    for loop in chain:
        if loop.var in effective:
            span = effective[loop.var] * loop.step
            tv = Var(tile_var[loop.var])
            lower: Expr = tv
            if _free_loop_vars(loop.lower, chain_vars):
                # Triangular lower bound: clamp to the true start.
                lower = MaxExpr(tv, loop.lower)
            upper: Expr = MinExpr(fold(BinOp("+", tv, IntLit(span))), loop.upper)
            point_bounds.append((loop, lower, upper))
        else:
            point_bounds.append((loop, loop.lower, loop.upper))

    # Rebuild inside-out: innermost point loop wraps the original body.
    inner: tuple = body
    for loop, lower, upper in reversed(point_bounds):
        inner = (replace(loop, lower=lower, upper=upper, body=inner),)

    # Tile loops, in the original loop order, wrap the point nest.
    for loop in reversed(chain):
        if loop.var not in effective:
            continue
        lo, hi = hull[loop.var]
        span = effective[loop.var] * loop.step
        tile_loop = ForLoop(
            var=tile_var[loop.var],
            lower=IntLit(lo),
            upper=IntLit(hi),
            step=span,
            body=inner,
            pragmas=loop.pragmas if loop is chain[0] else (),
        )
        inner = (tile_loop,)

    result = inner[0]
    assert isinstance(result, ForLoop)
    return result
