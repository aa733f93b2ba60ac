"""Composite transformation (Orio's ``Composite``): tile, then register-
tile, then unroll-and-jam, driven by one configuration of the tuning
parameters.

:func:`compose` builds the transformed AST (code generation needs it).
Analysis does not: a plan changes the composed nest in two ways only,
which loops it transforms (its :class:`Shape`) and the sizes, which
enter bounds, steps and unroll factors.  :class:`SourceNest` maps plans
to shapes and lays out a shape's loops with the sizes left symbolic
(:class:`ShapeLoop`), exactly as :func:`compose` would build them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.errors import TransformError
from repro.orio.annotations import TransformSpec
from repro.orio.ast import BinOp, Expr, ForLoop, IntLit, MaxExpr, MinExpr, Stmt, Var, loop_chain
from repro.orio.transforms.base import collect_names, fresh_name
from repro.orio.transforms.regtile import RegisterTile
from repro.orio.transforms.tile import _free_loop_vars, rectangular_hull, tile_nest
from repro.orio.transforms.unroll import UnrollJam

__all__ = [
    "Shape",
    "ShapeLoop",
    "SourceNest",
    "TransformPlan",
    "TransformedVariant",
    "compose",
    "step_var",
]


@dataclass(frozen=True)
class TransformPlan:
    """Concrete transformation factors for one configuration."""

    tile: Mapping[str, int] = field(default_factory=dict)  # loop var -> T
    regtile: Mapping[str, int] = field(default_factory=dict)  # loop var -> RT
    unroll: Mapping[str, int] = field(default_factory=dict)  # loop var -> U
    scalars: Mapping[str, object] = field(default_factory=dict)  # option -> value

    @classmethod
    def from_spec(cls, spec: TransformSpec, config: Mapping[str, object]) -> "TransformPlan":
        """Bind a kernel's :class:`TransformSpec` to configuration values.

        Parameters referenced by the spec but absent from ``config``
        are an error; extra configuration keys are ignored (they may
        drive other nests of the same kernel or non-loop options).
        """

        def bind(pairs) -> dict[str, int]:
            out = {}
            for var, param in pairs:
                if param not in config:
                    raise TransformError(f"configuration missing parameter {param!r}")
                out[var] = int(config[param])  # type: ignore[call-overload]
            return out

        scalars = {}
        for option, param in spec.scalars.items():
            if param not in config:
                raise TransformError(f"configuration missing parameter {param!r}")
            scalars[option] = config[param]
        return cls(
            tile=bind(spec.tile),
            regtile=bind(spec.regtile),
            unroll=bind(spec.unrolljam),
            scalars=scalars,
        )


@dataclass(frozen=True)
class TransformedVariant:
    """A transformed nest plus the roles of its loops.

    ``roles`` maps each loop variable in the transformed nest to a
    ``(role, original_var)`` pair with role in ``{"tile", "strip",
    "point"}``.
    """

    nest: ForLoop
    plan: TransformPlan
    roles: Mapping[str, tuple[str, str]]


def compose(nest: ForLoop, plan: TransformPlan) -> TransformedVariant:
    """Apply cache tiling, register tiling and unroll-and-jam in order.

    The unroll factor for a register-tiled variable targets its strip
    loop (jamming whole register blocks); otherwise it targets the
    point loop directly.
    """
    original_vars = set(plan.tile) | set(plan.regtile) | set(plan.unroll)
    roles: dict[str, tuple[str, str]] = {}

    # 1. Cache tiling (may introduce <var>t loops).
    before = {v for v in _loop_vars(nest)}
    result = tile_nest(nest, dict(plan.tile))
    for v in _loop_vars(result):
        if v in before:
            roles[v] = ("point", v)
        else:
            roles[v] = ("tile", _strip_suffix(v, "t", before))

    # 2. Register tiling (may introduce <var>r strip loops).
    unroll_target = {v: v for v in original_vars}
    for var, rt in plan.regtile.items():
        transform = RegisterTile(var, rt)
        result = transform.apply(result)
        if transform.strip_var is not None:
            roles[transform.strip_var] = ("strip", var)
            unroll_target[var] = transform.strip_var

    # 3. Unroll-and-jam.
    for var, u in plan.unroll.items():
        if u > 1:
            result = UnrollJam(unroll_target[var], u).apply(result)

    return TransformedVariant(nest=result, plan=plan, roles=roles)


def _loop_vars(nest: ForLoop) -> list[str]:
    out: list[str] = []
    stack: list = [nest]
    while stack:
        s = stack.pop()
        if isinstance(s, ForLoop):
            out.append(s.var)
            stack.extend(s.body)
    return out


def _strip_suffix(name: str, suffix: str, known: set[str]) -> str:
    """Recover the original variable from a generated tile-loop name."""
    base = name.rstrip("0123456789")
    if base.endswith(suffix):
        candidate = base[: -len(suffix)]
        if candidate in known:
            return candidate
    return name


# ----------------------------------------------------------------------
# Shapes: the composed nest with its sizes left symbolic
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Shape:
    """Which loops a plan transforms, named by their source variables.

    Two plans of one nest with equal shapes compose to nests of equal
    structure: loop names, roles and bound expressions agree, and only
    the sizes differ.
    """

    tiled: tuple[str, ...] = ()  # effective cache tiles, chain order
    regtiled: tuple[str, ...] = ()  # register tiles > 1, plan order
    unrolled: tuple[str, ...] = ()  # unroll-and-jam factors > 1, plan order


def step_var(var: str) -> Var:
    """The step of the plan-sized loop ``var``, as a bound leaf.

    Tiled and register-tiled point loops end at ``min(outer + span,
    upper)``, where ``span`` is the step of the tile or strip loop
    ``outer``; a :class:`ShapeLoop` bound names it ``Var("<outer>.step")``
    (no C identifier contains a dot).
    """
    return Var(f"{var}.step")


@dataclass(frozen=True)
class ShapeLoop:
    """One loop of a composed nest, its plan sizes left symbolic.

    The loop steps by ``step``, times ``plan.<step_by>[orig_var]`` when
    ``step_by`` is set (``"tile"`` or ``"regtile"``); its unroll factor
    is ``plan.<unroll_by>[orig_var]`` when ``unroll_by`` is set
    (``"regtile"`` or ``"unroll"``), else ``unroll``.
    """

    var: str
    role: str  # "tile" | "strip" | "point"
    orig_var: str
    lower: Expr
    upper: Expr
    step: int
    step_by: str | None = None
    unroll: int = 1
    unroll_by: str | None = None


class SourceNest:
    """A source nest as :func:`compose` sees it: its perfect loop chain,
    the chain's rectangular hull, and the shape of any plan."""

    def __init__(self, nest: ForLoop) -> None:
        self.nest = nest
        self.chain = loop_chain(nest)
        if not self.chain:
            raise TransformError("expected a loop nest")
        self.body: tuple[Stmt, ...] = self.chain[-1].body
        self._loops = {loop.var: loop for loop in self.chain}
        self._hull: dict[str, tuple[int, int]] | None = None

    def _loop(self, var: str) -> ForLoop:
        loop = self._loops.get(var)
        if loop is None:
            raise TransformError(f"no loop over {var!r} in the nest")
        return loop

    def hull(self) -> dict[str, tuple[int, int]]:
        """The chain's constant ``[lo, hi)`` hull (:func:`rectangular_hull`)."""
        if self._hull is None:
            self._hull = rectangular_hull(self.chain)
        return self._hull

    def shape(self, plan: TransformPlan) -> Shape:
        """The shape of ``plan``, raising the :class:`TransformError`
        that :func:`compose` raises for it.

        Register tiles and unrolls name loops of the source chain.
        """
        loops = self._loops
        for var, size in plan.tile.items():
            if var not in loops:
                raise TransformError(f"cannot tile {var!r}: not in the perfect loop chain")
            if size < 1:
                raise TransformError(f"tile size for {var!r} must be >= 1, got {size}")
        hull = self.hull()
        tiled = []
        for var, loop in loops.items():
            size = int(plan.tile.get(var, 1))
            lo, hi = hull[var]
            if size > 1 and size * loop.step < max(0, hi - lo):
                tiled.append(var)
        regtiled = []
        for var, factor in plan.regtile.items():
            if factor < 1:
                raise TransformError(f"register-tile factor must be >= 1, got {factor}")
            if factor > 1:
                if self._loop(var).unroll != 1:
                    raise TransformError(
                        f"cannot register-tile {var!r}: loop already unrolled"
                    )
                regtiled.append(var)
        unrolled = []
        for var, factor in plan.unroll.items():
            if factor > 1:
                # A register-tiled loop is unrolled at its fresh strip loop.
                if var not in regtiled and self._loop(var).unroll != 1:
                    raise TransformError(f"loop {var!r} already has an unroll factor")
                unrolled.append(var)
        return Shape(tuple(tiled), tuple(regtiled), tuple(unrolled))

    def loops(self, shape: Shape) -> list[ShapeLoop]:
        """The loop chain :func:`compose` builds for plans of ``shape``,
        outermost first: tile loops in chain order, then each source
        loop as its point loop, under its strip loop when register-tiled."""
        taken = collect_names(self.nest)
        source_vars = set(taken)
        chain_vars = set(self._loops)
        tile_var = {v: fresh_name(f"{v}t", taken) for v in shape.tiled}
        strip_var = {v: fresh_name(f"{v}r", taken) for v in shape.regtiled}
        hull = self.hull() if tile_var else {}

        out = []
        for loop in self.chain:
            if loop.var in tile_var:
                lo, hi = hull[loop.var]
                tv = tile_var[loop.var]
                out.append(ShapeLoop(tv, "tile", _strip_suffix(tv, "t", source_vars),
                                     IntLit(lo), IntLit(hi), loop.step, step_by="tile"))
        for loop in self.chain:
            var = loop.var
            lower, upper = loop.lower, loop.upper
            if var in tile_var:
                tv = Var(tile_var[var])
                lower = tv
                if _free_loop_vars(loop.lower, chain_vars):
                    lower = MaxExpr(tv, loop.lower)  # triangular: clamp to the true start
                upper = MinExpr(BinOp("+", tv, step_var(tv.name)), loop.upper)
            unroll_by = "unroll" if var in shape.unrolled else None
            if var in strip_var:
                sv = strip_var[var]
                out.append(ShapeLoop(sv, "strip", var, lower, upper, loop.step,
                                     step_by="regtile", unroll_by=unroll_by))
                lower = Var(sv)
                upper = MinExpr(BinOp("+", Var(sv), step_var(sv)), upper)
                unroll_by = "regtile"
            out.append(ShapeLoop(var, "point", var, lower, upper, loop.step,
                                 unroll=loop.unroll, unroll_by=unroll_by))
        return out
