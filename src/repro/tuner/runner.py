"""The tuning driver: technique(s) vs. an evaluator, on a clock."""

from __future__ import annotations

from repro.errors import SearchError
from repro.search.engine import SearchEngine
from repro.search.result import SearchTrace
from repro.spec import TunerSpec, resolve_spec
from repro.tuner.adapter import TechniqueProposer
from repro.tuner.database import ResultsDatabase
from repro.tuner.manipulator import ConfigurationManipulator
from repro.tuner.technique import SearchTechnique

__all__ = ["TuningRun"]


class TuningRun:
    """Drive one technique (or meta-technique) against an evaluator.

    ``evaluator`` follows the :class:`~repro.orio.evaluator
    .OrioEvaluator` protocol: ``evaluate(config)`` returns a measurement
    with ``runtime_seconds``/``evaluation_cost`` and charges ``clock``.
    Results are cached by configuration — re-proposals of measured
    configurations cost nothing, as in OpenTuner.

    Failed evaluations (recoverable
    :class:`~repro.errors.EvaluationFailure`, or degraded measurements
    from a :class:`~repro.reliability.resilient.ResilientEvaluator`)
    are recorded as failed trace entries; the technique receives the
    penalty/censored value as feedback so it steers away from the
    failing region, and the result is cached so the configuration is
    never re-measured.
    """

    # Objective value fed back to techniques for failures without a
    # censored bound: techniques need a finite number to rank against.
    FAILURE_FEEDBACK_FACTOR = 10.0

    def __init__(
        self,
        evaluator,
        technique: SearchTechnique,
        nmax: int = 100,
        name: str | None = None,
        spec: TunerSpec | None = None,
    ) -> None:
        if nmax < 1:
            raise SearchError(f"nmax must be >= 1, got {nmax}")
        self.evaluator = evaluator
        self.technique = technique
        self.spec = resolve_spec(spec)
        self.nmax = nmax
        self.name = name or technique.name
        self.database = ResultsDatabase()
        space = evaluator.kernel.space if hasattr(evaluator, "kernel") else evaluator.space
        self.manipulator = ConfigurationManipulator(space)
        self.space = space
        technique.bind(self.manipulator, self.database)

    def run(self, checkpoint=None) -> SearchTrace:
        """Run until ``nmax`` measurements (cache hits don't count).

        ``checkpoint`` is an optional
        :class:`~repro.reliability.checkpoint.CheckpointManager`.  On
        resume the measured-results database and the trace are restored,
        and every past result is replayed as feedback so the technique
        regains its knowledge; no configuration is re-measured (the
        cache makes re-proposals free).  Unlike the stream-driven
        searches, a stateful technique's internal RNG is *not* restored,
        so the continuation explores from rebuilt knowledge rather than
        replaying the interrupted run bit-for-bit.
        """
        engine = SearchEngine(
            self.evaluator,
            TechniqueProposer(
                self.technique,
                self.database,
                self.space,
                result_label=self.technique.name,
                failure_feedback_factor=self.FAILURE_FEEDBACK_FACTOR,
                iteration_mode="count",
            ),
            nmax=self.nmax,
            name=self.name,
            space=self.space,
            # A budget wall mid-evaluation charges the remaining budget:
            # the partial work until the wall was real.
            charge_remainder_on_exhaust=True,
            checkpoint=checkpoint,
            batch_size=self.spec.engine.batch_size,
        )
        return engine.run()
