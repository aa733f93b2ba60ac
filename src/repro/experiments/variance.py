"""Run-to-run variance of the transfer experiments.

Both the paper's tables and our reproductions of them are *single
runs* of randomized searches.  This experiment quantifies what that
means: it replicates one transfer cell across independent seeds and
reports the spread of the performance and search-time speedups, with
bootstrap confidence intervals.  The qualitative claims (success,
speedup regime) should be stable across seeds even where individual
cells wobble — exactly the behaviour visible in the paper's scattered
0.00 entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.harness import score_specs
from repro.spec import DEFAULT_SPEC
from repro.utils.stats import bootstrap_ci, summary
from repro.utils.tables import format_table

__all__ = ["VarianceResult", "run_variance_study"]


@dataclass(frozen=True)
class VarianceResult:
    problem: str
    source: str
    target: str
    variant: str
    performances: tuple[float, ...]
    search_times: tuple[float, ...]

    @property
    def n_seeds(self) -> int:
        return len(self.performances)

    def success_rate(self) -> float:
        """Fraction of seeds satisfying the paper's success criterion."""
        wins = sum(
            1
            for p, s in zip(self.performances, self.search_times)
            if p >= 1.0 and s > 1.0
        )
        return wins / max(1, self.n_seeds)

    def performance_ci(self, confidence: float = 0.9) -> tuple[float, float]:
        return bootstrap_ci(self.performances, np.median, confidence=confidence)

    def search_time_ci(self, confidence: float = 0.9) -> tuple[float, float]:
        return bootstrap_ci(self.search_times, np.median, confidence=confidence)

    def render(self) -> str:
        prf = summary(self.performances)
        srh = summary(self.search_times)
        plo, phi = self.performance_ci()
        slo, shi = self.search_time_ci()
        rows = [
            ["Prf.Imp", prf.minimum, prf.median, prf.maximum, f"[{plo:.2f}, {phi:.2f}]"],
            ["Srh.Imp", srh.minimum, srh.median, srh.maximum, f"[{slo:.2f}, {shi:.2f}]"],
        ]
        table = format_table(
            ["metric", "min", "median", "max", "90% CI (median)"],
            rows,
            title=(
                f"variance over {self.n_seeds} seeds: {self.variant}, "
                f"{self.problem} {self.source} -> {self.target}"
            ),
        )
        return table + f"\nsuccess rate: {self.success_rate():.0%}"


def run_variance_study(
    problem: str = "LU",
    source: str = "westmere",
    target: str = "sandybridge",
    variant: str = "RSb",
    n_seeds: int = 5,
    nmax: int = 100,
    pool_size: int = 10_000,
    n_workers: int = 1,
    registry_path=None,
) -> VarianceResult:
    """Replicate one transfer cell across independent seeds.

    Replicates are independent cells of one
    :func:`~repro.experiments.harness.score_specs` sweep — fan them out
    with ``n_workers`` or journal them with ``registry_path`` at will.
    """
    cells = score_specs(
        "variance",
        [(f"{variant} N={pool_size} nmax={nmax}",
          DEFAULT_SPEC.with_value("pool.size", pool_size))],
        [problem], [(source, target)],
        [("variance", k) for k in range(n_seeds)], nmax, variants=(variant,),
        registry_path=registry_path, n_workers=n_workers,
    )
    return VarianceResult(
        problem=problem,
        source=source,
        target=target,
        variant=variant,
        performances=tuple(c["prf"][variant] for c in cells),
        search_times=tuple(c["srh"][variant] for c in cells),
    )
