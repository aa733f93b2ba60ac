"""Shared results store for tuning runs."""

from __future__ import annotations

from dataclasses import dataclass

from repro.searchspace.space import Configuration

__all__ = ["Result", "ResultsDatabase"]


@dataclass(frozen=True)
class Result:
    """One measured configuration."""

    config: Configuration
    value: float  # objective (runtime seconds; lower is better)
    technique: str
    elapsed: float  # tuning time when measured


class ResultsDatabase:
    """Deduplicating store of all results in one tuning run.

    Techniques ask it which configurations were measured; the runner
    uses it to avoid re-measuring configurations (OpenTuner equally
    caches by configuration hash).
    """

    def __init__(self) -> None:
        self._results: list[Result] = []
        self._by_config: dict[int, Result] = {}

    def add(self, result: Result) -> None:
        self._results.append(result)
        self._by_config.setdefault(result.config.index, result)

    def lookup(self, config: Configuration) -> Result | None:
        """The first recorded result of this configuration, if any."""
        return self._by_config.get(config.index)

    @property
    def n_distinct(self) -> int:
        return len(self._by_config)

    def results(self) -> list[Result]:
        return list(self._results)

    def has(self, config: Configuration) -> bool:
        return config.index in self._by_config
