"""Random search with the biasing strategy (Algorithm 2, RSb) — and the
prune-then-bias hybrid (RSpb) the engine decomposition makes free.

RSb, phase 1: fit the surrogate on source data and predict the runtimes
of a pool of ``N`` random configurations.

RSb, phase 2: evaluate pool configurations on the target machine in
ascending order of predicted runtime (``argmin`` selection with removal,
as in Algorithm 2), for at most ``nmax`` evaluations.

RSpb additionally gates the sorted pool by RSp's quantile cutoff ``∆``:
only the best-predicted ``δ`` fraction is evaluated, in ascending
predicted order.  It is one :class:`~repro.search.engine.SearchEngine`
— the same :class:`PoolRankProposer` crossed with a
:class:`PredictionCutoffGate` — rather than a third hand-rolled loop.
"""

from __future__ import annotations

from repro.errors import SearchError
from repro.search.engine import SearchEngine
from repro.search.gates import PredictionCutoffGate
from repro.search.guarded import GuardedGate, GuardedProposer
from repro.search.proposers import PoolRankProposer
from repro.search.protocols import SurrogateModel
from repro.search.result import SearchTrace
from repro.searchspace.space import SearchSpace
from repro.spec import TunerSpec, resolve_spec

__all__ = ["biased_search", "hybrid_search"]


def _guarded_pool_proposer(proposer, policy, surrogate, stream, name):
    """Wrap a pool ranker when a guard ``policy`` is armed; validates
    the stream.

    A pool ranker's only candidate source *is* the model, so a guarded
    run needs the shared stream as its plain-RS fallback.
    """
    if policy is None:
        return proposer, None
    guard = policy.build(surrogate)
    if stream is None and guard.enabled:
        raise SearchError(
            f"guarded {name} needs stream= as its plain-RS fallback source"
        )
    return GuardedProposer(proposer, guard, stream=stream), guard


def biased_search(
    evaluator,
    space: SearchSpace,
    surrogate: SurrogateModel,
    nmax: int = 100,
    name: str = "RSb",
    checkpoint=None,
    stream=None,
    spec: TunerSpec | None = None,
) -> SearchTrace:
    """Run RSb for at most ``nmax`` evaluations.

    Failed evaluations (recoverable
    :class:`~repro.errors.EvaluationFailure`, or degraded measurements
    from a resilient evaluator) are recorded as failed entries at their
    pool rank and the search moves to the next-predicted configuration.
    ``checkpoint`` optionally resumes an interrupted run: the pool is
    redrawn from its deterministic, stateless generator key, so the
    resumed evaluation order is bit-identical to the interrupted one.

    ``spec`` (a :class:`repro.spec.TunerSpec`, default spec when
    ``None``) sets the pool size ``N`` (``pool.size``) and the engine
    block size (``engine.batch_size``).  A ``spec.guard`` policy arms
    negative-transfer monitoring; a guarded RSb interleaves the model
    ranking with ``stream`` draws while the model is SUSPECT and
    follows ``stream`` alone — plain RS under common random numbers —
    once it is REVOKED, so ``stream`` is required when the guard is
    enabled.  No guard and ``GuardPolicy.disabled()`` are
    byte-identical to an unguarded run.
    """
    spec = resolve_spec(spec)
    if nmax < 1:
        raise SearchError(f"nmax must be >= 1, got {nmax}")
    proposer, _ = _guarded_pool_proposer(
        PoolRankProposer(space, surrogate, pool_size=spec.pool.size),
        spec.guard, surrogate, stream, name,
    )
    engine = SearchEngine(
        evaluator,
        proposer,
        nmax=nmax,
        name=name,
        space=space,
        checkpoint=checkpoint,
        batch_size=spec.engine.batch_size,
    )
    return engine.run()


def hybrid_search(
    evaluator,
    space: SearchSpace,
    surrogate: SurrogateModel,
    nmax: int = 100,
    name: str = "RSpb",
    checkpoint=None,
    stream=None,
    spec: TunerSpec | None = None,
) -> SearchTrace:
    """Run the prune-then-bias hybrid (RSpb) for at most ``nmax``
    evaluations.

    The surrogate's pool ranking (RSb) is gated by the ``δ``-quantile
    cutoff ``∆`` of its own predictions (RSp): the search exploits the
    model's ordering but refuses to walk into the part of the pool the
    pruning test would have rejected, so a mediocre model's long tail
    costs skipped positions instead of evaluations.  Setup charges one
    model fit and one pool scoring — the gate reuses the proposer's
    predictions, so admission is free, unlike RSp's per-position query
    charge.

    Fault recording and ``checkpoint`` resume behave exactly as in
    :func:`biased_search`; the resumed pool and cutoff are recomputed
    deterministically.  ``trace.metadata`` carries both ``pool_size``
    and the ``cutoff`` ``∆``.

    ``spec`` sets ``pool.size``, ``gate.delta_percent`` and
    ``engine.batch_size``; ``spec.guard``/``stream`` behave as in
    :func:`biased_search` (the gate additionally widens its cutoff and
    audits under suspicion, as in guarded
    :func:`~repro.search.pruning.pruned_search`).
    """
    spec = resolve_spec(spec)
    if nmax < 1:
        raise SearchError(f"nmax must be >= 1, got {nmax}")
    proposer = PoolRankProposer(space, surrogate, pool_size=spec.pool.size)
    gate = PredictionCutoffGate(proposer, delta_percent=spec.gate.delta_percent)
    proposer, guard = _guarded_pool_proposer(
        proposer, spec.guard, surrogate, stream, name
    )
    if guard is not None:
        gate = GuardedGate(gate, guard)
    engine = SearchEngine(
        evaluator,
        proposer,
        gate,
        nmax=nmax,
        name=name,
        space=space,
        checkpoint=checkpoint,
        batch_size=spec.engine.batch_size,
    )
    return engine.run()
