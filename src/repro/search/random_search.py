"""Random search without replacement (RS) — the paper's baseline.

Configurations are drawn uniformly without replacement (each remaining
configuration has probability ``1/(|D|-k+1)`` at iteration ``k``,
Section II) and evaluated until the evaluation budget ``nmax`` is
reached or the simulated time budget runs out.
"""

from __future__ import annotations

from repro.search.engine import SearchEngine
from repro.search.proposers import StreamProposer
from repro.search.result import SearchTrace
from repro.search.stream import SharedStream
from repro.spec import TunerSpec, resolve_spec

__all__ = ["random_search"]


def random_search(
    evaluator,
    stream: SharedStream,
    nmax: int = 100,
    name: str = "RS",
    checkpoint=None,
    batch_size: int | None = None,
    spec: TunerSpec | None = None,
) -> SearchTrace:
    """Run RS for at most ``nmax`` evaluations.

    ``evaluator`` is an :class:`~repro.orio.evaluator.OrioEvaluator`-
    like object whose ``evaluate(config)`` returns a measurement with
    ``runtime_seconds`` and whose ``clock`` tracks elapsed search time.
    ``stream`` supplies the (shared) random configuration order.

    A :class:`~repro.errors.BudgetExhaustedError` from the evaluator
    ends the search early with ``exhausted_budget=True`` — the paper's
    X-Gene experience, where full data collection was impossible.
    Recoverable :class:`~repro.errors.EvaluationFailure` errors (and
    degraded measurements from a
    :class:`~repro.reliability.resilient.ResilientEvaluator`) are
    recorded as failed entries at their stream position — no extra
    positions are consumed, so CRN alignment survives faults.

    ``checkpoint`` is an optional
    :class:`~repro.reliability.checkpoint.CheckpointManager`; when its
    file exists the search resumes from it instead of starting over.

    ``batch_size`` is the engine's block size; traces are bit-identical
    for every size — see :class:`~repro.search.engine.SearchEngine`.
    When not passed it
    comes from ``spec`` (a :class:`repro.spec.TunerSpec`; the default
    spec reproduces historical behavior exactly).
    """
    spec = resolve_spec(spec)
    if batch_size is None:
        batch_size = spec.engine.batch_size
    engine = SearchEngine(
        evaluator,
        StreamProposer(stream),
        nmax=nmax,
        name=name,
        space=stream.space,
        stream=stream,
        checkpoint=checkpoint,
        batch_size=batch_size,
    )
    return engine.run()
