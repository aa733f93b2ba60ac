"""Static analysis of transformed loop nests.

Produces the machine-independent quantities the performance model
needs:

* executed flops / loads / stores;
* loop-header executions (branch + induction overhead);
* per-reference, per-loop-level *footprints* — the number of distinct
  elements an array reference touches during one complete execution of
  the loops at or inside a level.  The cost model combines these with a
  machine's cache capacities to locate, per cache level, the loop level
  at which the working set first fits, and from that the memory traffic
  (the classical analytical cache model for affine loop nests);
* register demand of the unrolled innermost body and the total body
  replication (ILP exposure);
* stride classification of each reference with respect to the innermost
  loop (vectorizability, spatial locality);
* the generated-statement count (compile-time model).

Trip counts and iteration totals for triangular loops (LU) are
estimated by unbiased deterministic path sampling (:func:`_sample_paths`).

A configuration is priced without building its transformed AST: a
:class:`ShapePlan` analyses one transform *shape* of a source nest (which
loops are tiled, register-tiled or unrolled) once, with the sizes left
symbolic, and :func:`analyze_variant` binds one plan's sizes into it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.errors import TransformError
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
    affine_coefficients,
    fold,
)
from repro.orio.transforms.pipeline import Shape, SourceNest, TransformPlan, step_var
from repro.utils.rng import hash_uniform

__all__ = [
    "LevelInfo",
    "RefInfo",
    "ShapePlan",
    "VariantMetrics",
    "analyze_nest",
    "analyze_variant",
]

ELEM_BYTES = 8  # all kernels use double precision


@dataclass(frozen=True)
class LevelInfo:
    """One loop level of the transformed nest, outermost first."""

    var: str
    orig_var: str  # original loop variable this level controls
    role: str  # "tile" | "strip" | "point"
    trip: float  # average iterations per entry
    unroll: int
    step: int


@dataclass(frozen=True)
class RefInfo:
    """One array reference with per-level locality information.

    ``elements[l]`` is the number of distinct elements touched during a
    complete execution of loop levels ``l..innermost``;
    ``unit_extent[l]`` the extent of the unit-stride direction at that
    level (1 when the reference has no unit-stride direction).
    """

    array: str
    is_store: bool
    vars: tuple[str, ...]  # original loop vars appearing in the index
    elements: tuple[float, ...]  # len == n_levels + 1 (level n == single iteration)
    unit_extent: tuple[float, ...]
    has_unit_stride: bool
    innermost_invariant: bool

    def lines(self, level: int, line_bytes: int, fractional: bool = False) -> float:
        """Distinct cache lines touched at ``level``.

        With ``fractional=True``, runs shorter than a line may count as
        a fraction of a line — correct when consecutive *entries* into
        this level continue the same contiguous run (the enclosing loop
        advances the unit-stride direction), so the line is shared
        across entries.  Without it, each short run pays a whole line.
        """
        elems = self.elements[level]
        if elems <= 0:
            return 0.0
        per_line = max(1.0, line_bytes / ELEM_BYTES)
        if not self.has_unit_stride:
            return elems  # every element on its own line (worst case)
        run = max(1.0, self.unit_extent[level])
        n_runs = elems / run
        if run >= per_line:
            lines_per_run = run / per_line
        elif fractional:
            lines_per_run = run / per_line  # shared with neighbouring entries
        else:
            lines_per_run = 1.0  # a short, isolated run still costs a line
        return n_runs * lines_per_run

    def parent_advances_unit(self, level: int) -> bool:
        """Whether the loop directly outside ``level`` extends this
        reference's unit-stride direction (enabling cross-entry line
        sharing)."""
        if level == 0 or not self.has_unit_stride:
            return False
        return self.unit_extent[level - 1] > self.unit_extent[level]

    def bytes_at(self, level: int) -> float:
        return self.elements[level] * ELEM_BYTES


@dataclass(frozen=True)
class VariantMetrics:
    """Everything the cost model needs to price one code variant."""

    levels: tuple[LevelInfo, ...]
    refs: tuple[RefInfo, ...]
    entry_counts: tuple[float, ...]  # entries into each level; [-1] = body executions
    flops: float
    loads: float
    stores: float
    body_executions: float
    header_executions: float
    statements_generated: int
    replication: int  # total innermost body replication (unroll product)
    register_demand: float
    stride1_fraction: float
    invariant_fraction: float

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    def executions_before(self, level: int) -> float:
        """Number of entries into ``level`` (unbiased path estimate)."""
        return self.entry_counts[level]

    @functools.cached_property
    def _working_sets(self) -> tuple[float, ...]:
        """:meth:`working_set_bytes` of every level, computed once."""
        seen = set()
        distinct = []
        for r in self.refs:
            if (r.array, r.vars) not in seen:
                seen.add((r.array, r.vars))
                distinct.append(r)
        out = []
        for level in range(self.n_levels + 1):
            total = 0.0
            for r in distinct:
                total += r.bytes_at(level)
            out.append(total)
        return tuple(out)

    def working_set_bytes(self, level: int) -> float:
        """Total bytes live during one execution of levels ``level..``.

        References to the same array over the same index variables (the
        load and store of a read-modify-write target) occupy the same
        cache lines, so they are counted once.
        """
        return self._working_sets[level]

    def fit_level(self, capacity_bytes: float) -> int:
        """Outermost level whose working set fits in ``capacity_bytes``.

        Returns ``n_levels`` when even a single iteration's data does
        not fit (capacity smaller than one body's refs).
        """
        for level, total in enumerate(self._working_sets):
            if total <= capacity_bytes:
                return level
        return self.n_levels  # pragma: no cover - loop always returns

    def traffic_bytes(self, capacity_bytes: float, line_bytes: int) -> float:
        """Bytes fetched *into* a cache of the given capacity.

        Classical model: find the outermost loop level at which the
        working set fits; everything inside that level is a hit, and
        each entry into the level refetches the footprint.
        """
        level = self.fit_level(capacity_bytes)
        entries = self.executions_before(level)
        per_entry = self._entry_bytes.get((level, line_bytes))
        if per_entry is None:
            per_entry = self._entry_bytes[level, line_bytes] = sum(
                r.lines(level, line_bytes, fractional=r.parent_advances_unit(level))
                * line_bytes
                for r in self.refs
            )
        return entries * per_entry

    @functools.cached_property
    def _entry_bytes(self) -> dict[tuple[int, int], float]:
        """Footprint bytes per entry into a level, by (level, line
        size), filled in by :meth:`traffic_bytes` as it meets them."""
        return {}


# ----------------------------------------------------------------------
# Analysis driver
# ----------------------------------------------------------------------
def _compute_ops(expr: Expr) -> int:
    """Arithmetic ops excluding address (index) arithmetic."""
    if isinstance(expr, BinOp):
        return 1 + _compute_ops(expr.left) + _compute_ops(expr.right)
    if isinstance(expr, (MinExpr, MaxExpr)):
        return 1 + _compute_ops(expr.left) + _compute_ops(expr.right)
    return 0  # ArrayRef indices and leaves contribute no compute flops


def _collect_refs(stmts: Sequence[Stmt]) -> list[tuple[ArrayRef, bool]]:
    """(reference, is_store) pairs from the innermost body."""
    refs: list[tuple[ArrayRef, bool]] = []
    for stmt in stmts:
        if not isinstance(stmt, Assign):
            raise TransformError("innermost body must be straight-line assignments")
        if isinstance(stmt.target, ArrayRef):
            refs.append((stmt.target, True))
            if stmt.op == "+=":
                refs.append((stmt.target, False))  # read-modify-write loads too

        def walk(e: Expr) -> None:
            if isinstance(e, ArrayRef):
                refs.append((e, False))
            elif isinstance(e, (BinOp, MinExpr, MaxExpr)):
                walk(e.left)
                walk(e.right)

        walk(stmt.value)
    return refs


_TRIP_SAMPLES = 64


@functools.lru_cache(maxsize=None)
def _trip_uniforms(idx: int, var: str) -> np.ndarray:
    """The uniforms that pick level ``idx``'s sampled iteration, one per
    sample path.  The keys never depend on the configuration, so each
    ``(level, loop variable)`` row of the table is drawn once."""
    table = np.array(
        [hash_uniform("trip-sample", idx, var, s) for s in range(_TRIP_SAMPLES)]
    )
    table.flags.writeable = False
    return table


_BOUND_OPS = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": np.floor_divide,  # Python floor semantics, as in fold()
    "%": np.remainder,
}


def _eval_bound(expr: Expr, env: Mapping[str, np.ndarray]):
    """A pre-folded bound over the alive sample paths: an int64 array
    (an int for a constant), or ``None`` when it reads a variable no
    outer loop binds."""
    if isinstance(expr, IntLit):
        return expr.value
    if isinstance(expr, Var):
        return env.get(expr.name)
    if not isinstance(expr, (BinOp, MinExpr, MaxExpr)):
        return None  # an array element: never a resolvable bound
    a = _eval_bound(expr.left, env)
    b = _eval_bound(expr.right, env)
    if a is None or b is None:
        return None
    if isinstance(expr, MinExpr):
        return np.minimum(a, b)
    if isinstance(expr, MaxExpr):
        return np.maximum(a, b)
    if expr.op in "/%" and np.any(b == 0):
        kind = "division" if expr.op == "/" else "modulo"
        raise TransformError(f"{kind} by zero in constant fold")
    return _BOUND_OPS[expr.op](a, b)


def _path_sum(values: np.ndarray) -> float:
    """Sum in path order, one addition at a time (``np.sum`` sums
    pairwise, which changes the float bits)."""
    return float(values.cumsum()[-1]) if len(values) else 0.0


def _sample_paths(
    bounds: Sequence[tuple[str, Expr, Expr]],
    steps: Sequence[int],
    sizes: Mapping[str, int],
) -> tuple[list[float], list[float]]:
    """(conditional trips per level, entry counts per boundary).

    ``bounds`` holds each level's variable and pre-folded bounds,
    outermost first; ``sizes`` binds the bounds' symbolic plan sizes
    (:func:`~repro.orio.transforms.pipeline.step_var`).  Bounds may
    reference outer loop variables (triangular nests, tiled point
    loops), so statistics are estimated by descending the nest along
    ``_TRIP_SAMPLES`` deterministic sample paths: at each level the
    bounds are evaluated with the sampled outer bindings, the trip
    count recorded, and one iteration sampled uniformly to bind the
    level's variable.  All paths descend together, one level at a
    time, each bound evaluated over the int64 bindings of the paths
    still alive; a path dies at a level whose trip count is zero.

    ``trips[l]`` is the mean trip count of level ``l`` *given that the
    level is reached* (used for footprint extents).  ``entries[l]`` is
    an unbiased estimate of the total number of entries into level
    ``l`` — the per-path product of the trip counts of levels above it
    (the sampling probability of a path is the reciprocal of exactly
    that product, so the sample mean telescopes to the true iteration
    count, triangular shapes included).  ``entries[n]`` is the total
    innermost-body execution count.
    """
    n = len(bounds)
    trip_sum = [0.0] * n
    reach_count = [0] * n
    entry_sum = [0.0] * (n + 1)
    paths = None  # the alive paths' numbers, None while all are alive
    prod = np.ones(_TRIP_SAMPLES)
    bindings: dict[str, object] = dict(sizes)
    for idx, ((var, lower, upper), step) in enumerate(zip(bounds, steps)):
        if not len(prod):
            break
        entry_sum[idx] = _path_sum(prod)
        reach_count[idx] = len(prod)
        lo = _eval_bound(lower, bindings)
        hi = _eval_bound(upper, bindings)
        if lo is None or hi is None:
            raise TransformError(f"loop {var}: cannot resolve bounds {lower}..{upper}")
        u = _trip_uniforms(idx, var)
        if paths is not None:
            u = u[paths]
        if isinstance(lo, np.ndarray) or isinstance(hi, np.ndarray):
            span = hi - lo
            # ceil(span / step), or 0 for an empty range
            trip = np.maximum(span if step == 1 else (span + (step - 1)) // step, 0)
            trip_sum[idx] = float(trip.sum())  # integers: exact in any order
            alive = trip > 0
            if not alive.all():
                paths = np.flatnonzero(alive) if paths is None else paths[alive]
                prod, trip, u = prod[alive], trip[alive], u[alive]
                if isinstance(lo, np.ndarray):
                    lo = lo[alive]
                bindings = {
                    v: b[alive] if isinstance(b, np.ndarray) else b
                    for v, b in bindings.items()
                }
        else:  # constant bounds: one trip count on every path
            trip = max(-(-(hi - lo) // step), 0)
            trip_sum[idx] = float(trip * len(prod))
            if not trip:
                prod = prod[:0]
                break
        prod = prod * trip
        offset = (u * trip).astype(np.int64)
        bindings[var] = lo + (offset if step == 1 else offset * step)
    entry_sum[n] = _path_sum(prod)  # empty once every path has died
    trips = [
        max(trip_sum[i] / reach_count[i], 1e-3) if reach_count[i] else 1e-3
        for i in range(n)
    ]
    entries = [max(e / _TRIP_SAMPLES, 1e-6) for e in entry_sum]
    return trips, entries


class ShapePlan:
    """The analysis of one transform shape of a source nest.

    Built once per shape with the tile, register-tile and unroll sizes
    left symbolic: the level chain with pre-folded bounds, and
    everything about the innermost body that no size changes (the
    references, their affine index variables and stride classes, and
    the flops, loads and stores per body execution).
    :func:`analyze_variant` prices one plan of the shape: it walks the
    sample paths over the bound steps and sizes and does the arithmetic
    that depends on them.  Its metrics equal those of analysing the
    nest :func:`compose` builds for the plan, field for field.
    """

    def __init__(self, source: SourceNest, shape: Shape | None = None) -> None:
        loops = source.loops(shape or Shape())
        self._loops = loops
        self._bounds = [(l.var, fold(l.lower), fold(l.upper)) for l in loops]
        self._steps = [l.step for l in loops]
        self._unrolls = [l.unroll for l in loops]
        self._step_sizes = [
            (i, l.step_by, l.orig_var, step_var(l.var).name)
            for i, l in enumerate(loops) if l.step_by is not None
        ]
        self._unroll_sizes = [
            (i, l.unroll_by, l.orig_var) for i, l in enumerate(loops) if l.unroll_by is not None
        ]
        # The levels controlling each source variable, outermost first.
        self._controls: dict[str, list[int]] = {}
        for i, l in enumerate(loops):
            self._controls.setdefault(l.orig_var, []).append(i)

        body = source.body
        raw_refs = _collect_refs(body)
        point_vars = [l.orig_var for l in loops if l.role == "point"]
        innermost_var = loops[-1].orig_var
        refs = []
        stride1 = invariant = 0
        for ref, is_store in raw_refs:
            coef_by_var: dict[str, int] = {}
            unit_var: str | None = None
            for dim, idx in enumerate(ref.indices):
                coefs, _ = affine_coefficients(idx, point_vars)
                for v, c in coefs.items():
                    coef_by_var[v] = coef_by_var.get(v, 0) + abs(c)
                if dim == len(ref.indices) - 1:
                    for v, c in coefs.items():
                        if abs(c) == 1:
                            unit_var = v
            inv = innermost_var not in coef_by_var
            has_unit = unit_var is not None
            if has_unit and unit_var == innermost_var:
                stride1 += 1
            if inv:
                invariant += 1
            refs.append((ref.name, is_store, tuple(sorted(coef_by_var)), unit_var, has_unit, inv))
        self._refs = refs
        # References sharing (array, vars) share registers.
        self._live_vars = list({(r[0], r[2]): r[2] for r in refs}.values())
        n_refs = max(1, len(raw_refs))
        self._stride1_fraction = stride1 / n_refs
        self._invariant_fraction = invariant / n_refs
        self._flops_per_body = float(
            sum(_compute_ops(s.value) for s in body if isinstance(s, Assign))
        )
        self._loads_per_body = float(sum(1 for _, st in raw_refs if not st))
        self._stores_per_body = float(sum(1 for _, st in raw_refs if st))
        self._body_statements = len(body)


def analyze_variant(shape: ShapePlan, plan: TransformPlan | None = None) -> VariantMetrics:
    """The metrics of ``plan``, a plan of ``shape``'s shape (none for
    the untransformed shape): its sizes bound into the shape plan."""
    steps = list(shape._steps)
    unrolls = list(shape._unrolls)
    sizes: dict[str, int] = {}
    for i, field, var, name in shape._step_sizes:
        size = getattr(plan, field)[var]
        steps[i] = sizes[name] = (int(size) if field == "tile" else size) * steps[i]
    for i, field, var in shape._unroll_sizes:
        unrolls[i] = getattr(plan, field)[var]
    trips, entries = _sample_paths(shape._bounds, steps, sizes)
    n = len(steps)

    # Extent of each source variable over levels >= l: the product
    # of the trips of its controlling levels, outermost first.
    extent: dict[str, list[float]] = {}
    for ov, levels in shape._controls.items():
        per_level = []
        for l in range(n + 1):
            prod = 1.0
            for i in levels:
                if i >= l:
                    prod *= trips[i]
            per_level.append(prod)
        extent[ov] = per_level

    ref_infos = []
    footprints: dict[tuple, tuple] = {}
    for array, is_store, ref_vars, unit_var, has_unit, inv in shape._refs:
        footprint = footprints.get((ref_vars, unit_var))
        if footprint is None:
            elements = []
            for l in range(n + 1):
                prod = 1.0
                for v in ref_vars:
                    prod *= extent[v][l]
                elements.append(prod)
            unit_ext = tuple(extent[unit_var]) if unit_var else (1.0,) * (n + 1)
            footprint = footprints[ref_vars, unit_var] = (tuple(elements), unit_ext)
        ref_infos.append(RefInfo(array, is_store, ref_vars, *footprint, has_unit, inv))

    header_execs = 0.0
    for i in range(n):
        header_execs += entries[i + 1] / unrolls[i]

    # Replication attributable to each source variable: the product
    # of the unroll factors of its controlling levels.
    repl = dict.fromkeys(shape._controls, 1)
    total_repl = 1
    for loop, unroll in zip(shape._loops, unrolls):
        repl[loop.orig_var] *= unroll
        total_repl *= unroll
    register_demand = 0.0
    for ref_vars in shape._live_vars:
        live = 1.0
        for v in ref_vars:
            live *= repl[v]
        register_demand += live
    register_demand += 2  # scratch temporaries

    # materialized_statements() in closed form: a loop adds its
    # header, an unrolled one its copies, remainder and two headers.
    statements = shape._body_statements
    for unroll in reversed(unrolls):
        statements = statements + 1 if unroll == 1 else unroll * statements + statements + 2

    body_execs = entries[n]
    return VariantMetrics(
        levels=tuple(
            LevelInfo(l.var, l.orig_var, l.role, trip, unroll, step)
            for l, trip, unroll, step in zip(shape._loops, trips, unrolls, steps)
        ),
        refs=tuple(ref_infos),
        entry_counts=tuple(entries),
        flops=shape._flops_per_body * body_execs,
        loads=shape._loads_per_body * body_execs,
        stores=shape._stores_per_body * body_execs,
        body_executions=body_execs,
        header_executions=header_execs,
        statements_generated=statements,
        replication=total_repl,
        register_demand=register_demand,
        stride1_fraction=shape._stride1_fraction,
        invariant_fraction=shape._invariant_fraction,
    )


def analyze_nest(nest: ForLoop, plan: TransformPlan | None = None) -> VariantMetrics:
    """Analyze a source nest as transformed by ``plan`` (untransformed
    when ``plan`` is None), building its shape plan for this one call.

    Raises :class:`TransformError` where :func:`compose` would refuse
    the plan or the nest cannot be analysed.
    """
    source = SourceNest(nest)
    if plan is None:
        return analyze_variant(ShapePlan(source))
    return analyze_variant(ShapePlan(source, source.shape(plan)), plan)
