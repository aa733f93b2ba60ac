"""Statistics used throughout the reproduction.

The paper reports Pearson (ρp) and Spearman (ρs) correlation between
per-configuration runtimes on two machines (Figures 1, 3, 4, 5) and
quantile cutoffs for the pruning strategy (Algorithm 1).  These are
implemented here with NumPy and cross-checked against SciPy in the test
suite, keeping the core library's runtime dependencies minimal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "pearson",
    "spearman",
    "rank",
    "quantile",
    "bootstrap_ci",
    "summary",
    "Summary",
]


def _as1d(values: Sequence[float]) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D sequence, got shape {arr.shape}")
    return arr


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson correlation coefficient ρp of two equal-length samples.

    Returns ``nan`` when either sample is constant (zero variance), the
    same convention SciPy uses.
    """
    xa, ya = _as1d(x), _as1d(y)
    if xa.shape != ya.shape:
        raise ValueError(f"length mismatch: {xa.shape[0]} vs {ya.shape[0]}")
    if xa.size < 2:
        raise ValueError("need at least two observations")
    xc = xa - xa.mean()
    yc = ya - ya.mean()
    denom = np.sqrt((xc * xc).sum() * (yc * yc).sum())
    if denom == 0.0:
        return float("nan")
    return float(np.clip((xc * yc).sum() / denom, -1.0, 1.0))


def rank(values: Sequence[float]) -> np.ndarray:
    """Fractional ranks (1-based, ties averaged), as used by Spearman."""
    arr = _as1d(values)
    order = np.argsort(arr, kind="stable")
    ranks = np.empty(arr.size, dtype=float)
    ranks[order] = np.arange(1, arr.size + 1, dtype=float)
    # Average the ranks within tie groups.
    sorted_vals = arr[order]
    i = 0
    while i < arr.size:
        j = i
        while j + 1 < arr.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        if j > i:
            ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def spearman(x: Sequence[float], y: Sequence[float]) -> float:
    """Spearman rank correlation ρs: Pearson correlation of the ranks."""
    return pearson(rank(x), rank(y))


def quantile(values: Sequence[float], q: float) -> float:
    """The ``q`` quantile (0 ≤ q ≤ 1) with linear interpolation.

    Algorithm 1 computes the δ% quantile of predicted runtimes over the
    configuration pool; this helper is that computation.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    arr = _as1d(values)
    if arr.size == 0:
        raise ValueError("cannot take the quantile of an empty sample")
    return float(np.quantile(arr, q))


def bootstrap_ci(
    values: Sequence[float],
    statistic=np.mean,
    confidence: float = 0.95,
    rng: np.random.Generator | None = None,
) -> tuple[float, float]:
    """Percentile-bootstrap confidence interval for a statistic, over
    2000 resamples."""
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    arr = _as1d(values)
    if arr.size == 0:
        raise ValueError("cannot bootstrap an empty sample")
    if rng is None:
        rng = np.random.default_rng(0)
    idx = rng.integers(0, arr.size, size=(2000, arr.size))
    stats = np.apply_along_axis(statistic, 1, arr[idx])
    alpha = (1.0 - confidence) / 2.0
    return (float(np.quantile(stats, alpha)), float(np.quantile(stats, 1.0 - alpha)))


@dataclass(frozen=True)
class Summary:
    """Five-number-plus summary of a sample."""

    n: int
    mean: float
    std: float
    minimum: float
    q25: float
    median: float
    q75: float
    maximum: float

    def __str__(self) -> str:
        return (
            f"n={self.n} mean={self.mean:.4g} std={self.std:.4g} "
            f"min={self.minimum:.4g} q25={self.q25:.4g} med={self.median:.4g} "
            f"q75={self.q75:.4g} max={self.maximum:.4g}"
        )


def summary(values: Sequence[float]) -> Summary:
    """Return a :class:`Summary` of the sample."""
    arr = _as1d(values)
    if arr.size == 0:
        raise ValueError("cannot summarize an empty sample")
    return Summary(
        n=int(arr.size),
        mean=float(arr.mean()),
        std=float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
        minimum=float(arr.min()),
        q25=float(np.quantile(arr, 0.25)),
        median=float(np.median(arr)),
        q75=float(np.quantile(arr, 0.75)),
        maximum=float(arr.max()),
    )
