"""Ground-truth oracle: static metrics against executed variants.

Each kernel is built at a reduced size; random configurations are
composed into real transformed nests and executed by the reference
interpreter (:func:`tests.orio.interp.run_nest`), whose access hook
counts every load and store.  Each array reference of the body is
renamed apart first, so the hook also tells which reference touched
which element.  The interpreter's counts are then compared with what
the analysis predicts for the same configuration:

* rectangular nests at a power-of-two size, where every tile and
  register tile divides its loop: body executions, flops, loads,
  stores and each reference's distinct elements at level 0 are exact;
* rectangular nests whose tiles leave partial blocks, and LU's
  triangular nests: the sampled estimates stay within stated bounds.

The renamed references are not what the kernels analyse, so each
prediction is also checked to equal the kernel's own metrics.
"""

import numpy as np
import pytest

from repro.kernels import KERNELS, get_kernel
from repro.orio.analysis import analyze_nest
from repro.orio.ast import ArrayRef, Assign, BinOp, MaxExpr, MinExpr, loop_chain
from repro.orio.transforms.pipeline import TransformPlan, compose
from repro.searchspace import PowerOfTwoParameter
from tests.orio.interp import run_nest

CONFIGS = 8
RECTANGULAR = sorted(name for name in KERNELS if name != "lu")
#: Bounds for the sampled estimates.  The extremes observed over the
#: seeds below: partial tiles (n=12) move counts and footprints by at
#: most 0.052; LU's counts (n=12, 16) by at most 0.40.  LU's footprints
#: are products of mean extents, not a triangle's distinct elements:
#: their predicted/executed ratio ranged over 0.20-1.66 here (0.13 at
#: n=20).
PARTIAL_TILE_BOUND = 0.10
TRIANGULAR_COUNT_BOUND = 0.5
TRIANGULAR_FOOTPRINT_RATIO = (0.1, 2.0)


def _rename_refs(nest):
    """``nest`` with every array reference of its body renamed
    ``<array>@<k>``, numbered in the analysis's reference order."""
    chain = loop_chain(nest)
    counter = iter(range(1 << 30))

    def ref(r):
        return ArrayRef(f"{r.name}@{next(counter)}", r.indices)

    def walk(e):
        if isinstance(e, ArrayRef):
            return ref(e)
        if isinstance(e, BinOp):
            return BinOp(e.op, walk(e.left), walk(e.right))
        if isinstance(e, (MinExpr, MaxExpr)):
            return type(e)(walk(e.left), walk(e.right))
        return e

    body = []
    for stmt in chain[-1].body:
        assert stmt.op == "=", "a '+=' target's load is not reported by the hook"
        target = ref(stmt.target)
        body.append(Assign(target, walk(stmt.value), stmt.op))
    inner = tuple(body)
    for loop in reversed(chain):
        inner = (loop.with_body(inner),)
    return inner[0]


def _flops(expr):
    if isinstance(expr, (BinOp, MinExpr, MaxExpr)):
        return 1 + _flops(expr.left) + _flops(expr.right)
    return 0


def _execute(nest, plan, n):
    """(loads, stores, body executions, flops, distinct elements per
    renamed array) of the composed variant, by execution."""
    variant = compose(nest, plan)
    body = loop_chain(nest)[-1].body
    arrays = {}
    for stmt in body:
        for name in _names(stmt):
            arrays[name] = np.zeros(n * n)
    touched = {name: set() for name in arrays}
    counts = [0, 0]

    def hook(name, flat, is_write):
        counts[is_write] += 1
        touched[name].add(flat)

    run_nest(variant.nest, arrays, on_access=hook)
    loads, stores = counts
    body_execs = stores // len(body)
    flops = body_execs * sum(_flops(s.value) for s in body)
    return loads, stores, body_execs, flops, {k: len(v) for k, v in touched.items()}


def _names(stmt):
    out = [stmt.target.name]

    def walk(e):
        if isinstance(e, ArrayRef):
            out.append(e.name)
        elif isinstance(e, (BinOp, MinExpr, MaxExpr)):
            walk(e.left)
            walk(e.right)

    walk(stmt.value)
    return out


def _configurations(kernel, n, seed):
    """Random configurations whose tiles and register tiles are powers
    of two below ``n``, so that they transform the reduced nests."""
    rng = np.random.default_rng(seed)
    out = []
    for config in kernel.space.sample(rng, CONFIGS):
        small = {
            p.name: 1 << int(rng.integers(0, (n - 1).bit_length()))
            for p in kernel.space.parameters if isinstance(p, PowerOfTwoParameter)
        }
        out.append(config.replace(**small))
    return out


def _compare(name, n, seed):
    """Yield (label, predicted, executed) pairs for one kernel."""
    kernel = get_kernel(name, n=n)
    for config in _configurations(kernel, n, seed):
        metrics = kernel.metrics_for(config)
        for idx, annotated in enumerate(kernel.nests):
            plan = TransformPlan.from_spec(annotated.spec, config)
            renamed = _rename_refs(annotated.nest)
            predicted = analyze_nest(renamed, plan)
            # Renaming changes no number the comparison reads.
            assert predicted.entry_counts == metrics[idx].entry_counts
            assert [r.elements for r in predicted.refs] == [r.elements for r in metrics[idx].refs]
            loads, stores, body_execs, flops, distinct = _execute(renamed, plan, n)
            label = f"{name}[{config.index}] nest {idx}"
            yield f"{label} body", predicted.body_executions, body_execs
            yield f"{label} flops", predicted.flops, flops
            yield f"{label} loads", predicted.loads, loads
            yield f"{label} stores", predicted.stores, stores
            for ref in predicted.refs:
                yield f"{label} {ref.array}", ref.elements[0], distinct[ref.array]


@pytest.mark.parametrize("name", RECTANGULAR)
def test_rectangular_nests_are_exact_when_tiles_divide(name):
    compared = 0
    for label, predicted, executed in _compare(name, n=16, seed=1):
        assert predicted == executed, label
        compared += 1
    assert compared >= CONFIGS * 5


@pytest.mark.parametrize("name", RECTANGULAR)
def test_rectangular_nests_with_partial_tiles(name):
    # 8 is a power-of-two tile that leaves a partial block of 12.
    for label, predicted, executed in _compare(name, n=12, seed=2):
        assert abs(predicted / executed - 1.0) <= PARTIAL_TILE_BOUND, label


@pytest.mark.parametrize("n, seed", [(12, 4), (16, 3)])
def test_triangular_lu_within_stated_bounds(n, seed):
    lo, hi = TRIANGULAR_FOOTPRINT_RATIO
    for label, predicted, executed in _compare("lu", n=n, seed=seed):
        if "@" in label.split()[-1]:  # a reference's footprint
            assert lo <= predicted / executed <= hi, label
        else:
            assert abs(predicted / executed - 1.0) <= TRIANGULAR_COUNT_BOUND, label
