"""Machine-readable performance reports for the ML hot paths.

The bench suite times each hot path twice — the legacy reference (the
original per-node split search, kept in ``tests/ml/legacy_tree.py``,
and per-tree prediction loops) and the optimized path — and writes a
``BENCH_ml.json`` report.  The
committed report doubles as a regression baseline: a later run on the
same machine fails the bench suite when a tracked entry slows down by
more than :data:`REGRESSION_THRESHOLD` against it.

Entries are plain dicts so the JSON stays greppable::

    {"name": "pool_predict_std", "seconds": ..., "baseline_seconds": ...,
     "speedup": ..., "meta": {"n_rows": 10000, ...}}
"""

from __future__ import annotations

import json
import os
import platform
import time
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "REGRESSION_THRESHOLD",
    "time_callable",
    "make_entry",
    "write_report",
    "load_report",
    "find_regressions",
]

#: Relative slowdown vs the committed baseline that fails `make bench`.
REGRESSION_THRESHOLD = 0.25

#: Set to "1" to report regressions without failing (e.g. when
#: regenerating the baseline on different hardware).
ALLOW_REGRESSION_ENV = "REPRO_BENCH_ALLOW_REGRESSION"


def time_callable(
    func: Callable[[], object], repeats: int = 7, warmup: int = 1
) -> float:
    """Median wall time of ``func()`` over ``repeats`` runs."""
    for _ in range(warmup):
        func()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        samples.append(time.perf_counter() - start)
    return float(np.median(samples))


def make_entry(
    name: str,
    seconds: float,
    baseline_seconds: float | None = None,
    **meta: object,
) -> dict:
    """One benchmark record; ``baseline_seconds`` is the legacy path."""
    entry: dict = {"name": name, "seconds": seconds}
    if baseline_seconds is not None:
        entry["baseline_seconds"] = baseline_seconds
        entry["speedup"] = baseline_seconds / seconds if seconds > 0 else float("inf")
    if meta:
        entry["meta"] = meta
    return entry


def write_report(path: str, entries: Sequence[dict],
                 suite: str = "BENCH_ml", **context: object) -> dict:
    """Write entries plus environment context; returns the report."""
    from repro.ml import _native

    report = {
        "suite": suite,
        "context": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
            "native_kernel": _native.available(),
            **context,
        },
        "entries": list(entries),
    }
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report


def load_report(path: str) -> dict | None:
    """The committed report, or ``None`` when absent/unreadable."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def find_regressions(
    current: Sequence[dict],
    baseline: dict | None,
    tracked: Sequence[str],
    threshold: float = REGRESSION_THRESHOLD,
) -> list[str]:
    """Human-readable regression messages for the tracked entries.

    An entry regresses when its current ``seconds`` exceeds the
    committed report's by more than ``threshold`` (relative).  Entries
    missing from either side are skipped — a fresh baseline is not a
    regression.
    """
    if baseline is None:
        return []
    old = {e["name"]: e for e in baseline.get("entries", [])}
    cur = {e["name"]: e for e in current}
    messages = []
    for name in tracked:
        if name not in old or name not in cur:
            continue
        before = float(old[name]["seconds"])
        after = float(cur[name]["seconds"])
        if before > 0 and after > before * (1.0 + threshold):
            messages.append(
                f"{name}: {after * 1e3:.1f} ms vs committed "
                f"{before * 1e3:.1f} ms (+{(after / before - 1.0) * 100:.0f}%, "
                f"threshold +{threshold * 100:.0f}%)"
            )
    return messages
