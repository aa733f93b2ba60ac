"""Exception hierarchy for the :mod:`repro` package.

All exceptions raised intentionally by the library derive from
:class:`ReproError`, so callers can catch everything library-specific
with a single ``except`` clause while letting genuine programming
errors (``TypeError`` from misuse of NumPy, etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SearchSpaceError(ReproError):
    """Invalid parameter definition, configuration, or space operation."""


class ConfigurationError(SearchSpaceError):
    """A configuration does not belong to the search space it is used with."""


class SpecError(ReproError, ValueError):
    """A tuner hyperparameter spec is out of range or cannot be decoded.

    Also a :class:`ValueError`: a spec is plain configuration data, and
    callers validating user input (service payloads, CLI flags, JSON
    files) expect range violations and malformed wire formats to look
    like value errors, not library internals.
    """


class ModelError(ReproError):
    """Surrogate-model fitting or prediction failure."""


class PolicyError(ModelError, SpecError):
    """A :class:`repro.transfer.guard.GuardPolicy` knob is out of range.

    Both a :class:`ModelError` (the policy configures the model guard —
    pre-existing callers catch that) and a :class:`SpecError` (it is
    hyperparameter configuration, so it is also a ``ValueError`` like
    every other rejected spec knob)."""


class NotFittedError(ModelError):
    """A model was asked to predict before :meth:`fit` was called."""


class SourceDataError(ModelError):
    """A source trace offered as surrogate training data is unusable.

    Raised by :func:`repro.transfer.sanitize.sanitize_training` (and
    therefore by :meth:`repro.transfer.Surrogate.fit`) when source rows
    are structurally invalid — NaN or non-positive runtimes,
    configurations from a foreign space, exact duplicate rows — or when
    every runtime is ``+inf``, leaving nothing to fit.  ``report``
    carries the per-category counts of what was found.
    """

    def __init__(self, message: str, report: object | None = None) -> None:
        self.report = report
        super().__init__(message)


class MachineError(ReproError):
    """Invalid machine specification or unknown machine name."""


class CompilationError(ReproError):
    """The (simulated) compiler rejected a code variant."""


class ParseError(ReproError):
    """The mini-Orio front end could not parse an annotated source."""

    def __init__(self, message: str, line: int | None = None) -> None:
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class TransformError(ReproError):
    """A code transformation could not be applied to the loop nest."""


class EvaluationError(ReproError):
    """A simulated measurement of a code variant failed."""


class BudgetExhaustedError(EvaluationError):
    """The simulated time budget for an experiment ran out.

    This models the paper's X-Gene situation, where run/compile times were
    too high to collect data for some problems (Section V).
    """


class EvaluationFailure(EvaluationError):
    """One evaluation failed in a way a robust harness can handle.

    Subclasses describe *operational* failures (glitches, crashes,
    timeouts, outages) rather than misuse: a search or a
    :class:`repro.reliability.ResilientEvaluator` may retry, censor, or
    skip the configuration and keep going, whereas plain
    :class:`EvaluationError` still signals a caller bug.
    """


class TransientEvaluationError(EvaluationFailure):
    """A one-off measurement glitch; retrying the evaluation may succeed."""


class EvaluationTimeout(EvaluationFailure):
    """The variant ran past the runtime cap; the measurement is censored.

    ``censored_at`` is the cap in simulated seconds — a *lower bound* on
    the true runtime, usable as a pessimistic stand-in value.
    """

    def __init__(self, message: str, censored_at: float) -> None:
        self.censored_at = float(censored_at)
        super().__init__(message)


class MachineOutageError(EvaluationFailure):
    """The target machine is down; retry after the recovery horizon.

    ``retry_after`` is how many simulated seconds until the machine is
    expected back; waiting it out is a legitimate (clock-charged)
    recovery strategy.
    """

    def __init__(self, message: str, retry_after: float) -> None:
        self.retry_after = float(retry_after)
        super().__init__(message)


class CompileCrashError(CompilationError, EvaluationFailure):
    """The compiler crashed on a variant; deterministic for that config.

    Both a :class:`CompilationError` (what happened) and an
    :class:`EvaluationFailure` (how to handle it): retrying is useless,
    the configuration should be censored or skipped.
    """


class WorkerCrashError(EvaluationFailure):
    """A worker process died (segfault, OOM kill, ``os._exit``) mid-task.

    Operational by nature: the supervisor kills nothing — the process
    simply vanished — so the executor respawns the worker and retries
    the cell.  ``exitcode`` is the observed process exit code (negative
    for deaths by signal, ``None`` when the process disappeared without
    reporting one).
    """

    def __init__(self, message: str, exitcode: int | None = None) -> None:
        self.exitcode = exitcode
        super().__init__(message)


class TaskTimeoutError(EvaluationFailure):
    """A supervised task ran past its wall-clock timeout or stopped
    heartbeating; the worker was killed and the cell is retried.

    ``elapsed`` is the wall-clock seconds the task had been running
    when the supervisor gave up on it.
    """

    def __init__(self, message: str, elapsed: float | None = None) -> None:
        self.elapsed = None if elapsed is None else float(elapsed)
        super().__init__(message)


class SearchError(ReproError):
    """A search algorithm was configured or driven incorrectly."""


class StreamExhaustedError(SearchError):
    """A shared configuration stream ran out of unseen configurations."""


class CheckpointError(ReproError):
    """A search checkpoint could not be written, read, or applied.

    ``path``/``offset`` locate the damage when it is known: the file
    that failed verification and the byte offset where the decoder or
    checksum verifier gave up (``None`` when not applicable — e.g. a
    semantic rejection of an otherwise-intact document).
    """

    def __init__(self, message: str, path: str | None = None,
                 offset: int | None = None) -> None:
        self.path = path
        self.offset = offset
        super().__init__(message)


class JournalWriteError(CheckpointError):
    """A durable journal append or rewrite was refused by the filesystem.

    Disk full, permission lost, a dying device: the record was **not**
    acknowledged (callers must not apply the state change it carried),
    but the journal itself stays recoverable — a partial write is a
    torn tail that the next successful append repairs and every reader
    drops.  ``errno`` preserves the OS-level cause so callers can
    distinguish transient pressure (``ENOSPC``) from permanent loss
    (``EACCES``/``EROFS``) when deciding whether to retry.
    """

    def __init__(self, message: str, path: str | None = None,
                 errno: int | None = None) -> None:
        self.errno = errno
        super().__init__(message, path=path)


class RegistryCorruptionError(CheckpointError, EvaluationFailure):
    """A run-registry record cannot yield the result asked of it.

    Both persistence damage (a :class:`CheckpointError` — the JSONL
    journal is the run's durable state) and an operational failure the
    execution layer knows how to handle (an :class:`EvaluationFailure`).
    Loading never raises it: a torn *final* record — the signature of a
    crash mid-append — is dropped, and damage anywhere else is
    quarantined and salvaged (see :mod:`repro.exec.scrub`), so the grid
    resumes and re-runs only the lost cells.
    """

    def __init__(self, message: str, path: str | None = None,
                 offset: int | None = None) -> None:
        super().__init__(message, path=path, offset=offset)


class ExperimentError(ReproError):
    """An experiment harness was configured incorrectly."""
