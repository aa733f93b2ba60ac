"""Differential oracle: shape plans against the compose-then-analyse path.

:class:`repro.orio.analysis.ShapePlan` analyses each transform shape of
a nest once and binds every configuration's sizes into it.  The
reference in :mod:`tests.orio.reference_analysis` composes a fresh AST
per configuration and analyses that.  Equality is exact (``==`` on
every :class:`VariantMetrics` field): the cost model, and through it
every golden trace, reads these numbers.
"""

from dataclasses import replace

import numpy as np
import pytest

import repro.kernels.base as kernels_base
from repro.errors import TransformError
from repro.kernels import KERNELS, get_kernel
from repro.orio.analysis import VariantMetrics, analyze_nest
from repro.orio.ast import loop_chain
from repro.orio.parser import parse_loop_nest
from repro.orio.transforms.pipeline import TransformPlan
from repro.orio.transforms.tile import rectangular_hull
from repro.utils.rng import hash_normal, hash_uniform
from tests.orio.reference_analysis import reference_analyze_plan, reference_metrics_for

CONFIGS_PER_KERNEL = 30
#: Default problem sizes, and a reduced one at which the larger tiles
#: cover whole loops (the "tile >= extent" no-op).
SIZES = (None, 64)

MM_SRC = """
for (i = 0; i <= N-1; i++)
  for (j = 0; j <= N-1; j++)
    for (k = 0; k <= N-1; k++)
      C[i*N+j] = C[i*N+j] + A[i*N+k] * B[k*N+j];
"""

LU_SRC = """
for (k = 0; k <= N-1; k++)
  for (i = k+1; i <= N-1; i++)
    for (j = k+1; j <= N-1; j++)
      A[i*N+j] = A[i*N+j] - A[i*N+k] * A[k*N+j];
"""


def _kernel(name, n):
    return get_kernel(name) if n is None else get_kernel(name, n=n)


def _tile_edges(kernel, config):
    """Configurations putting one tile at 1, at the largest size that
    still tiles its loop, and at the smallest and largest that cover it."""
    out = []
    for nest in kernel.nests:
        chain = loop_chain(nest.nest)
        steps = {loop.var: loop.step for loop in chain}
        hull = rectangular_hull(chain)
        for var, param in nest.spec.tile:
            lo, hi = hull[var]
            values = kernel.space.parameter(param).values()
            tiling = [v for v in values if v * steps[var] < hi - lo]
            covering = [v for v in values if v * steps[var] >= hi - lo]
            picks = {1, max(tiling), values[-1]}
            if covering:
                picks.add(covering[0])
            out.extend(config.replace(**{param: v}) for v in sorted(picks))
    return out


def _configurations(kernel, rng):
    configs = [kernel.space.default()] + kernel.space.sample(rng, CONFIGS_PER_KERNEL)
    return configs + _tile_edges(kernel, configs[1])


def _assert_same(got: VariantMetrics, want: VariantMetrics, label: str) -> None:
    for field in VariantMetrics.__dataclass_fields__:
        assert getattr(got, field) == getattr(want, field), f"{label}: {field}"
    assert got == want, label


@pytest.mark.parametrize("n", SIZES, ids=["default-size", "n64"])
@pytest.mark.parametrize("name", sorted(KERNELS))
def test_every_kernel_matches_the_reference(name, n):
    kernel = _kernel(name, n)
    rng = np.random.default_rng(20160523)
    configs = _configurations(kernel, rng)
    for config in configs:
        got = kernel.metrics_for(config)
        want = reference_metrics_for(kernel, config)
        assert len(got) == len(want) == len(kernel.nests)
        for idx, (g, w) in enumerate(zip(got, want)):
            _assert_same(g, w, f"{name}[{config.index}] nest {idx}")
    # Many configurations were bound into few shape plans.
    assert 0 < len(kernel._shape_plans) < len(configs) * len(kernel.nests)


def test_shape_plans_are_reused_across_sizes():
    kernel = get_kernel("lu", n=64)
    base = kernel.space.default()
    sizes = [dict(T1_I=8, RT_J=2, U_K=2), dict(T1_I=16, RT_J=4, U_K=7),
             dict(T1_I=32, RT_J=32, U_K=12)]
    for values in sizes:
        config = base.replace(**values)
        assert kernel.metrics_for(config) == reference_metrics_for(kernel, config)
    assert len(kernel._shape_plans) == 1  # one shape, three bindings


def test_kernels_share_no_shape_plans():
    first, second = get_kernel("mm", n=64), get_kernel("mm", n=64)
    first.metrics_for(first.space.sample_one(np.random.default_rng(0)))
    assert first._shape_plans and not second._shape_plans


def test_metrics_for_calls_the_analysis_hook_once_per_nest(monkeypatch):
    calls = []
    original = kernels_base.analyze_variant

    def counting(shape, plan):
        calls.append(plan)
        return original(shape, plan)

    monkeypatch.setattr(kernels_base, "analyze_variant", counting)
    kernel = get_kernel("atax", n=64)  # two annotated nests
    config = kernel.space.sample_one(np.random.default_rng(1))
    kernel.metrics_for(config)
    assert len(calls) == 2
    kernel.metrics_for(config)  # cached per configuration index
    assert len(calls) == 2


# -- plans outside the kernels' spaces -----------------------------------------
def _mm(n=32):
    return parse_loop_nest(MM_SRC, consts={"N": n})


def _lu(n=32):
    return parse_loop_nest(LU_SRC, consts={"N": n})


def _preunrolled():
    """MM with its innermost loop already carrying an unroll factor."""
    i, j, k = loop_chain(_mm())
    return i.with_body((j.with_body((replace(k, unroll=4),)),))


@pytest.mark.parametrize(
    "nest, plan",
    [
        (_mm(), TransformPlan()),
        (_mm(), TransformPlan(tile={"i": 8, "j": 32, "k": 5}, unroll={"k": 3})),
        (_lu(), TransformPlan(tile={"k": 4, "i": 7, "j": 31}, regtile={"i": 3, "j": 64})),
        (_lu(), TransformPlan(regtile={"k": 2, "j": 2}, unroll={"k": 5, "i": 2, "j": 1})),
        (_mm(), TransformPlan(tile={"i": 1}, regtile={"i": 1}, unroll={"i": 0})),
        (_preunrolled(), None),
        (_preunrolled(), TransformPlan(tile={"k": 8}, regtile={"i": 2}, unroll={"j": 2})),
    ],
    ids=["empty", "mm-tiled", "lu-partial-tiles", "lu-regtiled", "no-ops",
         "preunrolled", "preunrolled-transformed"],
)
def test_hand_built_plans_match_the_reference(nest, plan):
    _assert_same(analyze_nest(nest, plan), reference_analyze_plan(nest, plan), str(plan))


@pytest.mark.parametrize(
    "nest, plan",
    [
        (_mm(), TransformPlan(tile={"x": 4})),
        (_mm(), TransformPlan(tile={"i": 0})),
        (_mm(), TransformPlan(regtile={"i": 0})),
        (_mm(), TransformPlan(tile={"i": 8}, regtile={"q": 2})),
        (_mm(), TransformPlan(unroll={"q": 2})),
        (_mm(), TransformPlan(regtile={"q": 2, "i": 0})),
        (_preunrolled(), TransformPlan(regtile={"k": 2})),
        (_preunrolled(), TransformPlan(unroll={"k": 2})),
        (parse_loop_nest("for (i = 0; i < M; i++) A[i] = 0;"), TransformPlan(tile={"i": 2})),
        (parse_loop_nest("for (i = 0; i < M; i++) A[i] = 0;"), None),
        (parse_loop_nest("for (i = 0; i < 8; i++) A[i*M] = 0;"), TransformPlan(tile={"i": 2})),
        (parse_loop_nest("for (i = 0; i < 4; i++) { x = 1; for (j = 0; j < 2; j++) A[j] = 0; }"),
         TransformPlan(unroll={"i": 2})),
    ],
    ids=["tile-unknown-loop", "tile-zero", "regtile-zero", "regtile-unknown-loop",
         "unroll-unknown-loop", "regtile-order", "regtile-unrolled-loop",
         "unroll-unrolled-loop", "unbound-hull", "unbound-bounds", "free-index-symbol",
         "non-straight-line-body"],
)
def test_refused_plans_raise_the_reference_error(nest, plan):
    with pytest.raises(TransformError) as want:
        reference_analyze_plan(nest, plan)
    with pytest.raises(TransformError) as got:
        analyze_nest(nest, plan)
    assert str(got.value) == str(want.value)


# -- hash_normal ---------------------------------------------------------------
def _plain_hash_normal(*parts):
    u1 = hash_uniform(*parts, "u1")
    u2 = hash_uniform(*parts, "u2")
    return float(np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2))


def _random_key(rng, depth=0):
    kinds = ["int", "float", "str", "bool", "none", "bytes"] + (["tuple"] if depth < 2 else [])
    parts = []
    for _ in range(int(rng.integers(0, 5))):
        kind = kinds[int(rng.integers(len(kinds)))]
        if kind == "int":
            parts.append(int(rng.integers(-10**12, 10**12)))
        elif kind == "float":
            parts.append(float(rng.normal() * 10 ** int(rng.integers(-5, 6))))
        elif kind == "str":
            parts.append("".join(chr(int(c)) for c in rng.integers(32, 0x3000, size=int(rng.integers(0, 8)))))
        elif kind == "bool":
            parts.append(bool(rng.integers(2)))
        elif kind == "none":
            parts.append(None)
        elif kind == "bytes":
            parts.append(bytes(rng.integers(0, 256, size=int(rng.integers(0, 6))).tolist()))
        else:
            parts.append(tuple(_random_key(rng, depth + 1)))
    return parts


def test_hash_normal_prefix_path_matches_the_plain_path():
    rng = np.random.default_rng(7)
    keys = [(), ("quirk", "sandybridge", "('mm', (12, 0))"), ("u1",), ("",)]
    keys += [tuple(_random_key(rng)) for _ in range(500)]
    for key in keys:
        assert hash_normal(*key) == _plain_hash_normal(*key), key
