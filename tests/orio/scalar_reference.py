"""The scalar trip-sample walk, kept as the slow reference for
:func:`repro.orio.analysis._level_stats`.

This is the pre-vectorisation implementation, unchanged: it descends
the nest one sample path at a time and folds each bound with
:func:`repro.orio.ast.fold`.  The vectorised walk must reproduce its
``trips`` and ``entries`` bit for bit.
"""

from __future__ import annotations

from repro.errors import TransformError
from repro.orio.analysis import _TRIP_SAMPLES
from repro.orio.ast import ForLoop, IntLit, fold
from repro.utils.rng import hash_uniform


def scalar_level_stats(chain: list[ForLoop]) -> tuple[list[float], list[float]]:
    """(conditional trips per level, entry counts per boundary)."""
    n = len(chain)
    trip_sum = [0.0] * n
    reach_count = [0] * n
    entry_sum = [0.0] * (n + 1)
    for s in range(_TRIP_SAMPLES):
        bindings: dict[str, int] = {}
        prod = 1.0
        alive = True
        for idx, loop in enumerate(chain):
            if not alive:
                break
            entry_sum[idx] += prod
            lo = fold(loop.lower, bindings)
            hi = fold(loop.upper, bindings)
            if not isinstance(lo, IntLit) or not isinstance(hi, IntLit):
                raise TransformError(
                    f"loop {loop.var}: cannot resolve bounds {loop.lower}..{loop.upper}"
                )
            span = hi.value - lo.value
            trip = -(-span // loop.step) if span > 0 else 0
            trip_sum[idx] += trip
            reach_count[idx] += 1
            if trip == 0:
                alive = False
                break
            prod *= trip
            u = hash_uniform("trip-sample", idx, loop.var, s)
            bindings[loop.var] = lo.value + int(u * trip) * loop.step
        if alive:
            entry_sum[n] += prod
    trips = [
        max(trip_sum[i] / reach_count[i], 1e-3) if reach_count[i] else 1e-3
        for i in range(n)
    ]
    entries = [max(e / _TRIP_SAMPLES, 1e-6) for e in entry_sum]
    return trips, entries
