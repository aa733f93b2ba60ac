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
estimated by unbiased deterministic path sampling (:func:`_level_stats`).
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
    loop_chain,
)
from repro.orio.transforms.pipeline import TransformedVariant
from repro.orio.transforms.unroll import materialized_statements
from repro.utils.rng import hash_uniform

__all__ = ["LevelInfo", "RefInfo", "VariantMetrics", "analyze_nest", "analyze_variant"]

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

    def working_set_bytes(self, level: int) -> float:
        """Total bytes live during one execution of levels ``level..``.

        References to the same array over the same index variables (the
        load and store of a read-modify-write target) occupy the same
        cache lines, so they are counted once.
        """
        seen = set()
        total = 0.0
        for r in self.refs:
            key = (r.array, r.vars)
            if key in seen:
                continue
            seen.add(key)
            total += r.bytes_at(level)
        return total

    def fit_level(self, capacity_bytes: float) -> int:
        """Outermost level whose working set fits in ``capacity_bytes``.

        Returns ``n_levels`` when even a single iteration's data does
        not fit (capacity smaller than one body's refs).
        """
        for level in range(self.n_levels + 1):
            if self.working_set_bytes(level) <= capacity_bytes:
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
        per_entry = sum(
            r.lines(level, line_bytes, fractional=r.parent_advances_unit(level))
            * line_bytes
            for r in self.refs
        )
        return entries * per_entry


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
    return float(np.cumsum(values)[-1]) if len(values) else 0.0


def _level_stats(chain: list[ForLoop]) -> tuple[list[float], list[float]]:
    """(conditional trips per level, entry counts per boundary).

    Bounds may reference outer loop variables (triangular nests, tiled
    point loops), so statistics are estimated by descending the nest
    along ``_TRIP_SAMPLES`` deterministic sample paths: at each level
    the bounds are evaluated with the sampled outer bindings, the trip
    count recorded, and one iteration sampled uniformly to bind the
    level's variable.  All paths descend together, one level at a time:
    each bound is pre-folded once (applying :func:`fold`'s identities)
    and then evaluated over the int64 bindings of the paths still
    alive; a path dies at a level whose trip count is zero.

    ``trips[l]`` is the mean trip count of level ``l`` *given that the
    level is reached* (used for footprint extents).  ``entries[l]`` is
    an unbiased estimate of the total number of entries into level
    ``l`` — the per-path product of the trip counts of levels above it
    (the sampling probability of a path is the reciprocal of exactly
    that product, so the sample mean telescopes to the true iteration
    count, triangular shapes included).  ``entries[n]`` is the total
    innermost-body execution count.
    """
    n = len(chain)
    trip_sum = [0.0] * n
    reach_count = [0] * n
    entry_sum = [0.0] * (n + 1)
    paths = np.arange(_TRIP_SAMPLES)
    prod = np.ones(_TRIP_SAMPLES)
    bindings: dict[str, np.ndarray] = {}
    for idx, loop in enumerate(chain):
        if not len(paths):
            break
        entry_sum[idx] = _path_sum(prod)
        lo = _eval_bound(fold(loop.lower), bindings)
        hi = _eval_bound(fold(loop.upper), bindings)
        if lo is None or hi is None:
            raise TransformError(
                f"loop {loop.var}: cannot resolve bounds {loop.lower}..{loop.upper}"
            )
        if np.ndim(lo) == 0:  # a constant bound
            lo = np.full(len(paths), lo, dtype=np.int64)
        span = hi - lo
        trip = np.where(span > 0, -(-span // loop.step), 0)
        trip_sum[idx] = float(trip.sum())  # integers: exact in any order
        reach_count[idx] = len(paths)
        alive = trip > 0
        if not alive.all():
            paths, prod, lo, trip = paths[alive], prod[alive], lo[alive], trip[alive]
            bindings = {v: b[alive] for v, b in bindings.items()}
        prod = prod * trip
        u = _trip_uniforms(idx, loop.var)[paths]
        bindings[loop.var] = lo + (u * trip).astype(np.int64) * loop.step
    entry_sum[n] = _path_sum(prod)  # empty once every path has died
    trips = [
        max(trip_sum[i] / reach_count[i], 1e-3) if reach_count[i] else 1e-3
        for i in range(n)
    ]
    entries = [max(e / _TRIP_SAMPLES, 1e-6) for e in entry_sum]
    return trips, entries


def analyze_variant(variant: TransformedVariant) -> VariantMetrics:
    """Analyze a composed variant, using its role map for extents."""
    return analyze_nest(variant.nest, roles=variant.roles)


def analyze_nest(
    nest: ForLoop,
    roles: Mapping[str, tuple[str, str]] | None = None,
) -> VariantMetrics:
    """Analyze a perfect (post-transformation) loop nest.

    ``roles`` maps transformed loop variables to ``(role, orig_var)``;
    untransformed nests may omit it (every loop is then its own point
    loop).
    """
    chain = loop_chain(nest)
    if not chain:
        raise TransformError("expected a loop nest")
    body = chain[-1].body
    trips, entries = _level_stats(chain)
    n = len(chain)

    level_infos: list[LevelInfo] = []
    for loop, trip in zip(chain, trips):
        role, orig = ("point", loop.var)
        if roles and loop.var in roles:
            role, orig = roles[loop.var]
        level_infos.append(
            LevelInfo(var=loop.var, orig_var=orig, role=role, trip=trip,
                      unroll=loop.unroll, step=loop.step)
        )

    # Extent of each *original* variable over levels >= l: product of the
    # trips of its controlling loops at those levels.
    orig_vars = {li.orig_var for li in level_infos}
    extent: dict[str, list[float]] = {}
    for ov in orig_vars:
        per_level = []
        for l in range(n + 1):
            prod = 1.0
            for li, trip in zip(level_infos[l:], trips[l:]):
                if li.orig_var == ov:
                    prod *= trip
            per_level.append(prod)
        extent[ov] = per_level

    # Innermost point variable (for stride classification).
    innermost_var = level_infos[-1].orig_var

    raw_refs = _collect_refs(body)
    point_vars = [li.orig_var for li in level_infos if li.role == "point"]
    ref_infos: list[RefInfo] = []
    stride1 = 0
    invariant = 0
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
        ref_vars = tuple(sorted(coef_by_var))
        elements = []
        unit_ext = []
        for l in range(n + 1):
            prod = 1.0
            for v in ref_vars:
                prod *= extent[v][l]
            elements.append(prod)
            unit_ext.append(extent[unit_var][l] if unit_var else 1.0)
        inv = innermost_var not in coef_by_var
        has_unit = unit_var is not None
        if has_unit and unit_var == innermost_var:
            stride1 += 1
        if inv:
            invariant += 1
        ref_infos.append(
            RefInfo(
                array=ref.name,
                is_store=is_store,
                vars=ref_vars,
                elements=tuple(elements),
                unit_extent=tuple(unit_ext),
                has_unit_stride=has_unit,
                innermost_invariant=inv,
            )
        )

    body_execs = entries[n]

    header_execs = 0.0
    for idx, li in enumerate(level_infos):
        header_execs += entries[idx + 1] / li.unroll

    flops_per_body = float(sum(_compute_ops(s.value) for s in body if isinstance(s, Assign)))
    loads_per_body = float(sum(1 for _, st in raw_refs if not st))
    stores_per_body = float(sum(1 for _, st in raw_refs if st))

    # Replication attributable to each original variable: product of the
    # unroll factors of its controlling loops.
    repl: dict[str, int] = {ov: 1 for ov in orig_vars}
    total_repl = 1
    for li in level_infos:
        repl[li.orig_var] *= li.unroll
        total_repl *= li.unroll

    register_demand = 0.0
    seen: set[tuple] = set()
    for ri in ref_infos:
        key = (ri.array, ri.vars)
        if key in seen:
            continue
        seen.add(key)
        live = 1.0
        for v in ri.vars:
            live *= repl.get(v, 1)
        register_demand += live
    register_demand += 2  # scratch temporaries

    n_refs = max(1, len(raw_refs))
    return VariantMetrics(
        levels=tuple(level_infos),
        refs=tuple(ref_infos),
        entry_counts=tuple(entries),
        flops=flops_per_body * body_execs,
        loads=loads_per_body * body_execs,
        stores=stores_per_body * body_execs,
        body_executions=body_execs,
        header_executions=header_execs,
        statements_generated=materialized_statements(nest),
        replication=total_repl,
        register_demand=register_demand,
        stride1_fraction=stride1 / n_refs,
        invariant_fraction=invariant / n_refs,
    )
