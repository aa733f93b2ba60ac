"""Shared low-level utilities: seeded RNG streams, statistics, rendering."""

from repro.utils.rng import RngFactory, stable_hash, stable_seed, spawn_rng
from repro.utils.stats import (
    pearson,
    spearman,
    quantile,
    rank,
    bootstrap_ci,
    summary,
)

__all__ = [
    "RngFactory",
    "stable_hash",
    "stable_seed",
    "spawn_rng",
    "pearson",
    "spearman",
    "quantile",
    "rank",
    "bootstrap_ci",
    "summary",
]
