"""Inputs, statistics and the per-pass outcome shared by the workloads."""

from __future__ import annotations

import random
import resource
from dataclasses import dataclass, field

__all__ = [
    "PAIRS", "Outcome", "children_cpu_seconds", "cpu_seconds", "peak_rss_mb", "quantile",
    "rng_for",
]

#: The Table IV machine pairs: every source with every other target.
SOURCES = ("westmere", "sandybridge", "power7")
TARGETS = ("westmere", "sandybridge", "power7", "xgene")
PAIRS = tuple((s, t) for s in SOURCES for t in TARGETS if s != t)


def rng_for(workload: str, seed: int) -> random.Random:
    """The input generator of one workload for one ``--seed``."""
    return random.Random(f"perfbench/{workload}/{seed}")


def quantile(values, q: float) -> float:
    """Linearly interpolated quantile ``q`` (0..1) of ``values``."""
    xs = sorted(values)
    if not xs:
        raise ValueError("quantile of no values")
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def cpu_seconds() -> float:
    """CPU time of this process and of the worker processes it reaped."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime + children_cpu_seconds()


def children_cpu_seconds() -> float:
    """CPU time of the child processes reaped so far, their own reaped
    children included."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb() -> float:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Outcome:
    """What one pass of a workload did, and how long its operations took."""

    attempted: int = 0
    failed: int = 0
    #: (evaluations, operations completed with correct output, wall
    #: seconds) per unit of work: a session, a grid round, a service run.
    units: list[tuple[int, int, float]] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0  # the workload's own reading; 0 means the process peak
    figures: dict[str, float] = field(default_factory=dict)  # reported, not gated
    problems: list[str] = field(default_factory=list)

    def fail(self, why: str) -> None:
        self.failed += 1
        self.problems.append(why)
