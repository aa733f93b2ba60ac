"""Source-trace validation — the data-integrity front door of transfer.

A source trace is foreign data: it may come from another machine, an
older code version, or a partially corrupted results file.  Feeding a
structurally broken row into :meth:`repro.transfer.Surrogate.fit`
either crashes deep inside numpy (``log`` of a negative runtime) or —
worse — silently fits a misleading model, which is exactly the
negative-transfer failure mode the guard layer exists to contain.
:func:`sanitize_training` screens every ``(configuration, runtime)``
pair *before* the learner sees it and classifies each problem:

* **NaN or -inf runtimes** — never meaningful measurements;
* **non-positive runtimes** — ``log(y)``, the surrogate's target, is
  undefined for them;
* **out-of-space configurations** — rows encoded against a different
  :class:`~repro.searchspace.space.SearchSpace` would be scrambled by
  this space's encoding;
* **exact duplicate rows** — identical ``(config index, runtime)``
  pairs silently re-weight the learner.

``+inf`` runtimes pass through untouched: they mark evaluations that
never finished, and ``Surrogate.fit`` leaves them out of the fit.

Any finding rejects the whole set with a structured
:class:`~repro.errors.SourceDataError` whose :class:`SanitizationReport`
counts every category found.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import SearchSpaceError, SourceDataError
from repro.searchspace.space import Configuration, SearchSpace

__all__ = ["SanitizationReport", "sanitize_training"]


def _belongs(space: SearchSpace, config: object) -> bool:
    """Whether ``config`` is valid in ``space``.

    Identity covers the common case; otherwise the row's values are
    re-linearized in ``space`` — pooled multi-machine training
    legitimately carries configurations from an *equal* space built by
    an independent ``get_kernel`` call, and those must not be rejected.
    """
    if not isinstance(config, Configuration):
        return False
    if config.space is space:
        return True
    try:
        return space.configuration(dict(config)).index == config.index
    except SearchSpaceError:
        return False


@dataclass
class SanitizationReport:
    """What :func:`sanitize_training` found in one training set."""

    n_input: int = 0
    n_nan: int = 0
    n_nonpositive: int = 0
    n_out_of_space: int = 0
    n_duplicate: int = 0
    #: one human-readable line per offending row, in input order
    findings: list[str] = field(default_factory=list)

    @property
    def n_invalid(self) -> int:
        return self.n_nan + self.n_nonpositive + self.n_out_of_space + self.n_duplicate

    @property
    def clean(self) -> bool:
        return self.n_invalid == 0

    def summary(self) -> str:
        parts = []
        if self.n_nan:
            parts.append(f"{self.n_nan} NaN/-inf runtime(s)")
        if self.n_nonpositive:
            parts.append(f"{self.n_nonpositive} non-positive runtime(s)")
        if self.n_out_of_space:
            parts.append(f"{self.n_out_of_space} out-of-space configuration(s)")
        if self.n_duplicate:
            parts.append(f"{self.n_duplicate} duplicate row(s)")
        if not parts:
            return f"{self.n_input} row(s), all valid"
        return f"{self.n_input} row(s): " + ", ".join(parts)


def sanitize_training(
    space: SearchSpace,
    training: Sequence[tuple[Configuration, float]],
) -> SanitizationReport:
    """Validate ``(configuration, runtime)`` pairs against ``space``.

    Returns the (clean) report; any finding raises
    :class:`~repro.errors.SourceDataError` with the report attached.
    A duplicate is every repeat of a row after its first occurrence.
    """
    report = SanitizationReport(n_input=len(training))
    seen: set[tuple[int, float]] = set()
    for row_no, (config, runtime) in enumerate(training):
        runtime = float(runtime)
        problem = None
        if not _belongs(space, config):
            problem = "out_of_space"
            report.n_out_of_space += 1
        elif math.isnan(runtime) or runtime == -math.inf:
            problem = "nan"
            report.n_nan += 1
        elif runtime <= 0:
            problem = "nonpositive"
            report.n_nonpositive += 1
        elif (config.index, runtime) in seen:
            problem = "duplicate"
            report.n_duplicate += 1
        if problem is None:
            seen.add((config.index, runtime))
        else:
            report.findings.append(
                f"row {row_no}: {problem} (runtime={runtime!r})"
            )
    if not report.clean:
        raise SourceDataError(
            f"source training data rejected — {report.summary()}", report=report
        )
    return report
