"""Search traces: what a search evaluated, when, and how good it was."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from repro.errors import SearchError
from repro.searchspace.space import Configuration

__all__ = ["EvaluationRecord", "SearchTrace"]


@dataclass(frozen=True)
class EvaluationRecord:
    """One evaluated configuration within a search.

    ``failed`` marks configurations whose evaluation could not be
    recovered (the runtime is then a penalty value, or — when
    ``censored`` — a lower bound such as a timeout cap).  Failed records
    occupy their stream position, keeping common-random-numbers
    comparisons aligned, but never count as a search's best result.
    """

    config: Configuration
    runtime: float  # measured objective (seconds)
    elapsed: float  # simulated search time when this evaluation completed
    skipped_before: int = 0  # configurations skipped since the previous record
    failed: bool = False  # evaluation failed; runtime is penalty/censored
    censored: bool = False  # runtime is a lower bound (e.g. timeout cap)


@dataclass
class SearchTrace:
    """The complete history of one search run."""

    algorithm: str
    records: list[EvaluationRecord] = field(default_factory=list)
    total_elapsed: float = 0.0  # includes trailing overhead after last evaluation
    exhausted_budget: bool = False
    metadata: dict = field(default_factory=dict)

    def add(self, record: EvaluationRecord) -> None:
        if self.records and record.elapsed < self.records[-1].elapsed:
            raise SearchError("evaluation records must be time-ordered")
        self.records.append(record)
        self.total_elapsed = max(self.total_elapsed, record.elapsed)

    # ------------------------------------------------------------------
    @property
    def n_evaluations(self) -> int:
        return len(self.records)

    @property
    def n_failures(self) -> int:
        """How many recorded evaluations failed."""
        return sum(1 for r in self.records if r.failed)

    def successes(self) -> list[EvaluationRecord]:
        """The records whose evaluation produced a real measurement."""
        return [r for r in self.records if not r.failed]

    def failures(self) -> list[EvaluationRecord]:
        """The records whose evaluation failed (censored or penalized)."""
        return [r for r in self.records if r.failed]

    def best(self) -> EvaluationRecord:
        """The best-performing successfully evaluated configuration."""
        successes = self.successes()
        if not successes:
            raise SearchError(
                f"{self.algorithm}: no successful evaluations recorded"
            )
        return min(successes, key=lambda r: r.runtime)

    @property
    def best_runtime(self) -> float:
        return self.best().runtime

    def time_of_best(self) -> float:
        """Elapsed search time at which the final best was first found."""
        return self.best().elapsed

    def time_to_reach(self, runtime: float) -> float | None:
        """Elapsed time when a config with runtime <= ``runtime`` was
        first successfully evaluated, or ``None`` if the search never
        got there."""
        for r in self.records:
            if not r.failed and r.runtime <= runtime:
                return r.elapsed
        return None

    def best_so_far(self) -> tuple[np.ndarray, np.ndarray]:
        """Step-curve arrays: (elapsed times, best runtime at each).

        Only improvement points are returned (the classic search
        progress curve of Figures 3-5); failed evaluations never
        improve the curve.
        """
        times: list[float] = []
        bests: list[float] = []
        cur = float("inf")
        for r in self.records:
            if not r.failed and r.runtime < cur:
                cur = r.runtime
                times.append(r.elapsed)
                bests.append(cur)
        return np.asarray(times), np.asarray(bests)

    def runtimes(self) -> np.ndarray:
        return np.asarray([r.runtime for r in self.records])

    def configs(self) -> list[Configuration]:
        return [r.config for r in self.records]

    def training_data(self) -> list[tuple[Configuration, float]]:
        """The (x_i, y_i) pairs of Section III — surrogate training data.

        Failed evaluations are excluded: their penalty or censored
        runtimes are not measurements.
        """
        return [(r.config, r.runtime) for r in self.records if not r.failed]

    def state_digest(self) -> str:
        """A sha256 digest over the trace's replayable state.

        Covers every record (config index, runtime, elapsed,
        skip/failure/censoring flags), the total elapsed time, and the
        budget-exhaustion flag — everything a resume must reproduce —
        while excluding free-form ``metadata`` (which may carry
        diagnostics that legitimately differ between a chaos run and
        its reference).  Two runs converged to the same search state if
        and only if their digests match; the chaos oracle compares
        exactly this across kill/restart boundaries.
        """
        rows = [
            (r.config.index, repr(r.runtime), repr(r.elapsed),
             r.skipped_before, r.failed, r.censored)
            for r in self.records
        ]
        payload = json.dumps(
            {
                "algorithm": self.algorithm,
                "records": rows,
                "total_elapsed": repr(self.total_elapsed),
                "exhausted_budget": self.exhausted_budget,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def __repr__(self) -> str:
        if not self.records:
            return f"SearchTrace({self.algorithm!r}, empty)"
        failed = f", failed={self.n_failures}" if self.n_failures else ""
        if not self.successes():
            return (
                f"SearchTrace({self.algorithm!r}, n={self.n_evaluations}{failed}, "
                f"elapsed={self.total_elapsed:.4g}s)"
            )
        return (
            f"SearchTrace({self.algorithm!r}, n={self.n_evaluations}{failed}, "
            f"best={self.best_runtime:.4g}s, elapsed={self.total_elapsed:.4g}s)"
        )
