"""Random search with the pruning strategy (Algorithm 1, RSp).

Phase 1: fit the surrogate on the source data, sample a pool of ``N``
configurations, predict their runtimes, and set the cutoff ``∆`` to the
``δ``-quantile of those predictions (δ = 20% in the paper).

Phase 2: walk the (shared) random stream; predict each configuration's
runtime; evaluate it on the target only when the prediction is below
``∆``.  Model fitting/prediction time is charged to the search clock.

Composition: a surrogate-carrying :class:`StreamProposer` crossed with
a :class:`QuantileGate` under the shared
:class:`~repro.search.engine.SearchEngine` accounting.
"""

from __future__ import annotations

from repro.errors import SearchError
from repro.search.engine import SearchEngine
from repro.search.gates import QuantileGate
from repro.search.guarded import GuardedGate, GuardedProposer
from repro.search.proposers import StreamProposer
from repro.search.protocols import SurrogateModel
from repro.search.result import SearchTrace
from repro.search.stream import SharedStream
from repro.spec import TunerSpec, resolve_spec

__all__ = ["pruned_search"]


def pruned_search(
    evaluator,
    stream: SharedStream,
    surrogate: SurrogateModel,
    nmax: int = 100,
    max_stream_positions: int | None = None,
    name: str = "RSp",
    checkpoint=None,
    spec: TunerSpec | None = None,
) -> SearchTrace:
    """Run RSp for at most ``nmax`` evaluations.

    ``surrogate`` must already be fitted on the source machine's data
    (its fit time is charged here, since the fit happens as part of the
    target-machine tuning session).  ``max_stream_positions`` bounds
    how far past the budget the stream may be walked when almost
    everything is pruned (default: ``50 * nmax``); the positions walked
    are ``trace.metadata["stream_positions"]``.  A budget wall during a
    model query or an evaluation hands that position back, so it is not
    counted.

    Failed evaluations (recoverable
    :class:`~repro.errors.EvaluationFailure`, or degraded measurements
    from a resilient evaluator) are recorded as failed entries at their
    stream position, so CRN alignment with RS survives faults.
    ``checkpoint`` optionally resumes an interrupted run; the pruning
    cutoff is recomputed deterministically on resume without re-charging
    the model-fit time.

    ``spec`` (a :class:`repro.spec.TunerSpec`, default spec when
    ``None``) sets the pool size ``N`` (``pool.size``), the pruning
    quantile ``δ`` (``gate.delta_percent``) and the engine block size
    (``engine.batch_size``; each block is scored by one surrogate call,
    and traces are bit-identical for every size).  A ``spec.guard``
    policy arms negative-transfer monitoring: the surrogate is scored
    against target observations as they accrue, the pruning quantile
    widens under suspicion (with occasional audits of would-be-pruned
    configurations), and a revoked model degrades the run to plain RS
    on the same stream.  No guard and ``GuardPolicy.disabled()`` are
    byte-identical to an unguarded run.
    """
    spec = resolve_spec(spec)
    if nmax < 1:
        raise SearchError(f"nmax must be >= 1, got {nmax}")
    if max_stream_positions is None:
        max_stream_positions = 50 * nmax

    space = stream.space
    proposer = StreamProposer(stream, surrogate=surrogate)
    gate = QuantileGate.from_spec(space, surrogate, spec)
    if spec.guard is not None:
        # RSp's proposer already walks the shared stream, so no
        # separate fallback source: REVOKED simply stops paying for
        # (and acting on) model queries.
        guard = spec.guard.build(surrogate)
        proposer = GuardedProposer(proposer, guard)
        gate = GuardedGate(gate, guard)
    engine = SearchEngine(
        evaluator,
        proposer,
        gate,
        nmax=nmax,
        name=name,
        space=space,
        stream=stream,
        position_cap=max_stream_positions,
        checkpoint=checkpoint,
        batch_size=spec.engine.batch_size,
    )
    return engine.run()
