"""The compose-then-analyse path, kept as the slow reference for shape plans.

This is the static analysis as it ran before shape plans, unchanged:
every configuration composes a fresh transformed AST
(:func:`repro.orio.transforms.pipeline.compose`) and walks it with
:func:`reference_analyze_nest`.  :class:`repro.orio.analysis.ShapePlan`
must reproduce its :class:`~repro.orio.analysis.VariantMetrics` exactly
(``==`` on every field), and raise a :class:`~repro.errors.TransformError`
wherever it raises one.
"""

from __future__ import annotations

from typing import Mapping

from repro.errors import TransformError
from repro.orio.analysis import (
    LevelInfo,
    RefInfo,
    VariantMetrics,
    _collect_refs,
    _compute_ops,
    _sample_paths,
)
from repro.orio.ast import Assign, ForLoop, affine_coefficients, fold, loop_chain
from repro.orio.transforms.pipeline import TransformPlan, TransformedVariant, compose
from repro.orio.transforms.unroll import materialized_statements

__all__ = [
    "level_stats",
    "reference_analyze_nest",
    "reference_analyze_plan",
    "reference_metrics_for",
]


def level_stats(chain: list[ForLoop]) -> tuple[list[float], list[float]]:
    """(conditional trips per level, entry counts per boundary) of a
    loop chain: the vectorised sample-path walk over its folded bounds."""
    return _sample_paths(
        [(loop.var, fold(loop.lower), fold(loop.upper)) for loop in chain],
        [loop.step for loop in chain],
        {},
    )


def reference_metrics_for(kernel, config) -> tuple[VariantMetrics, ...]:
    """A kernel's per-nest metrics the way ``metrics_for`` used to build them."""
    return tuple(reference_analyze_variant(v) for v in kernel.variants_for(config))


def reference_analyze_plan(nest: ForLoop, plan: TransformPlan | None) -> VariantMetrics:
    """Compose ``plan`` (none: the untransformed nest) and analyse the result."""
    if plan is None:
        return reference_analyze_nest(nest)
    return reference_analyze_variant(compose(nest, plan))


def reference_analyze_variant(variant: TransformedVariant) -> VariantMetrics:
    """Analyze a composed variant, using its role map for extents."""
    return reference_analyze_nest(variant.nest, roles=variant.roles)


def reference_analyze_nest(
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
    trips, entries = level_stats(chain)
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
