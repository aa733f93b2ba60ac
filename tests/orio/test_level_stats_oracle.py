"""Differential oracle: the vectorised trip-sample walk against the
scalar reference in :mod:`tests.orio.scalar_reference`.

Equality is exact (``==`` on the float lists), never approximate: the
cost model, and through it every golden trace, reads these numbers.
"""

import numpy as np
import pytest

from repro.errors import TransformError
from repro.kernels import KERNELS, get_kernel
from repro.orio.analysis import _level_stats
from repro.orio.ast import (
    ArrayRef,
    Assign,
    BinOp,
    ForLoop,
    IntLit,
    MaxExpr,
    MinExpr,
    Var,
    loop_chain,
)
from tests.orio.scalar_reference import scalar_level_stats

CONFIGS_PER_KERNEL = 25


def _add(a, b):
    return BinOp("+", a, b)


def _sub(a, b):
    return BinOp("-", a, b)


def _nest(*levels, body_index="i"):
    """A perfect nest from ``(var, lower, upper, step)`` levels."""
    body = (Assign(ArrayRef("A", (Var(body_index),)), IntLit(0)),)
    nest = None
    for var, lower, upper, step in reversed(levels):
        nest = ForLoop(var, lower, upper, step, body if nest is None else (nest,))
    return nest


N = IntLit(40)
i, j, k, it = Var("i"), Var("j"), Var("k"), Var("it")

HAND_BUILT = {
    "floor_division": _nest(
        ("i", IntLit(0), N, 1),
        # (i - 17) / 3 is negative for small i: floor, not truncation.
        ("j", BinOp("/", _sub(i, IntLit(17)), IntLit(3)), _add(BinOp("/", i, IntLit(2)), IntLit(5)), 1),
        ("k", IntLit(0), BinOp("/", _add(i, j), IntLit(-4)), 1),
    ),
    "modulo": _nest(
        ("i", IntLit(0), N, 1),
        ("j", BinOp("%", _sub(i, IntLit(20)), IntLit(7)), _add(BinOp("%", i, IntLit(5)), IntLit(9)), 2),
        ("k", BinOp("%", j, IntLit(-3)), BinOp("%", _add(i, j), _add(BinOp("%", i, IntLit(4)), IntLit(1))), 1),
    ),
    "min_max_bounds": _nest(
        ("i", IntLit(0), N, 1),
        ("j", MaxExpr(_sub(i, IntLit(10)), IntLit(3)), MinExpr(_add(i, IntLit(6)), N), 1),
        ("k", MinExpr(j, i), MaxExpr(MinExpr(_add(j, IntLit(4)), IntLit(30)), i), 3),
    ),
    "tiled_triangular": _nest(
        ("k", IntLit(0), N, 1),
        ("it", _add(k, IntLit(1)), N, 8),
        ("i", MaxExpr(it, _add(k, IntLit(1))), MinExpr(_add(it, IntLit(8)), N), 1),
        ("j", _add(k, IntLit(1)), N, 1),
    ),
    "zero_trip_inner_level": _nest(
        ("i", IntLit(0), N, 1),
        # Empty for i < 25: some paths die here, the rest descend.
        ("j", i, _sub(BinOp("*", IntLit(2), i), IntLit(25)), 1),
        ("k", IntLit(5), IntLit(5), 1),  # every remaining path dies
        ("l", IntLit(0), N, 1),
    ),
    "negative_span": _nest(
        ("i", IntLit(0), N, 1),
        ("j", _add(i, IntLit(3)), i, 1),  # always empty
    ),
    "huge_products": _nest(
        # Per-path trip products pass 2**53, so the float sums round and
        # their order shows in the last bits.
        ("i", IntLit(0), IntLit(1_000_003), 1),
        ("j", IntLit(0), _add(i, IntLit(999_331)), 1),
        ("k", IntLit(0), _add(BinOp("*", j, IntLit(3)), IntLit(7)), 1),
        ("l", IntLit(0), _add(_add(i, k), IntLit(1)), 1),
    ),
    "identities": _nest(
        ("i", IntLit(0), N, 1),
        # m * 0 folds to 0 before m would need a binding.
        ("j", BinOp("*", Var("m"), IntLit(0)), MinExpr(_add(i, IntLit(0)), _add(i, IntLit(0))), 1),
    ),
}


def _random_chains():
    rng = np.random.default_rng(20160523)
    for name in sorted(KERNELS):
        kernel = get_kernel(name)
        configs = [kernel.space.default()] + kernel.space.sample(rng, CONFIGS_PER_KERNEL)
        for config in configs:
            for variant in kernel.variants_for(config):
                yield f"{name}[{config.index}]", loop_chain(variant.nest)


def test_random_configurations_of_every_kernel():
    compared = 0
    for label, chain in _random_chains():
        assert _level_stats(chain) == scalar_level_stats(chain), label
        compared += 1
    assert compared >= len(KERNELS) * (CONFIGS_PER_KERNEL + 1)


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_hand_built_nests(name):
    chain = loop_chain(HAND_BUILT[name])
    assert _level_stats(chain) == scalar_level_stats(chain)


def test_hand_built_nests_exercise_path_death():
    trips, entries = _level_stats(loop_chain(HAND_BUILT["zero_trip_inner_level"]))
    assert entries[2] > 1e-6  # some paths survive level 1...
    assert trips[2] == 1e-3 and entries[3] == entries[4] == 1e-6  # ...and die at 2
    assert trips[3] == 1e-3  # level 3 is never reached
    trips, entries = _level_stats(loop_chain(HAND_BUILT["negative_span"]))
    assert trips[1] == 1e-3 and entries[2] == 1e-6


@pytest.mark.parametrize(
    "upper",
    [
        BinOp("/", IntLit(40), _sub(i, IntLit(3))),  # zero on the paths with i == 3
        BinOp("%", i, _sub(i, i)),  # zero on every path
    ],
    ids=["division", "modulo"],
)
@pytest.mark.parametrize("walk", [_level_stats, scalar_level_stats], ids=["vectorised", "scalar"])
def test_zero_divisor_rejected(walk, upper):
    chain = loop_chain(_nest(("i", IntLit(0), IntLit(8), 1), ("j", IntLit(0), upper, 1)))
    with pytest.raises(TransformError, match="by zero"):
        walk(chain)


@pytest.mark.parametrize("walk", [_level_stats, scalar_level_stats], ids=["vectorised", "scalar"])
def test_bound_on_an_inner_variable_rejected(walk):
    chain = loop_chain(_nest(("i", IntLit(0), j, 1), ("j", IntLit(0), N, 1)))
    with pytest.raises(TransformError, match="cannot resolve bounds"):
        walk(chain)


@pytest.mark.parametrize("walk", [_level_stats, scalar_level_stats], ids=["vectorised", "scalar"])
def test_unreachable_level_is_never_evaluated(walk):
    # Every path dies at level 0, so the unresolvable level 1 is skipped.
    chain = loop_chain(_nest(("i", IntLit(4), IntLit(4), 1), ("j", IntLit(0), Var("m"), 1)))
    trips, entries = walk(chain)
    assert trips == [0.001, 0.001] and entries == [1.0, 1e-6, 1e-6]
