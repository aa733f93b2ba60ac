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
from repro.search.guarded import GuardedGate, GuardedProposer, build_guard
from repro.search.proposers import PoolRankProposer
from repro.search.protocols import SurrogateModel
from repro.search.result import SearchTrace
from repro.searchspace.space import SearchSpace
from repro.spec import UNSET, TunerSpec, resolve_spec

__all__ = ["biased_search", "hybrid_search"]


def _guarded_pool_proposer(proposer, guard, surrogate, stream, name):
    """Wrap a pool ranker when a guard is armed; validates the stream.

    A pool ranker's only candidate source *is* the model, so a guarded
    run needs the shared stream as its plain-RS fallback.
    """
    guard_obj = build_guard(guard, surrogate)
    if guard_obj is None:
        return proposer, None
    if stream is None and guard_obj.enabled:
        raise SearchError(
            f"guarded {name} needs stream= as its plain-RS fallback source"
        )
    return GuardedProposer(proposer, guard_obj, stream=stream), guard_obj


def biased_search(
    evaluator,
    space: SearchSpace,
    surrogate: SurrogateModel,
    nmax: int = 100,
    pool_size: int | None = None,
    name: str = "RSb",
    checkpoint=None,
    guard=UNSET,
    stream=None,
    batch_size: int | None = None,
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

    ``guard`` (a :class:`repro.transfer.guard.GuardPolicy` or pre-built
    guard) arms negative-transfer monitoring; a guarded RSb interleaves
    the model ranking with ``stream`` draws while the model is SUSPECT
    and follows ``stream`` alone — plain RS under common random
    numbers — once it is REVOKED, so ``stream`` is required when the
    guard is enabled.  ``guard=None`` and ``GuardPolicy.disabled()``
    are byte-identical to an unguarded run.

    ``spec`` (a :class:`repro.spec.TunerSpec`) supplies defaults for
    ``pool_size``, ``guard``, and ``batch_size`` when those are not
    passed explicitly; the default spec reproduces historical behavior.
    """
    spec = resolve_spec(spec)
    if pool_size is None:
        pool_size = spec.pool.size
    if guard is UNSET:
        guard = spec.guard
    if batch_size is None:
        batch_size = spec.engine.batch_size
    if nmax < 1:
        raise SearchError(f"nmax must be >= 1, got {nmax}")
    if pool_size < 10:
        raise SearchError(f"pool_size must be >= 10, got {pool_size}")
    proposer, _ = _guarded_pool_proposer(
        PoolRankProposer(space, surrogate, pool_size=pool_size),
        guard, surrogate, stream, name,
    )
    engine = SearchEngine(
        evaluator,
        proposer,
        nmax=nmax,
        name=name,
        space=space,
        checkpoint=checkpoint,
        batch_size=batch_size,
    )
    return engine.run()


def hybrid_search(
    evaluator,
    space: SearchSpace,
    surrogate: SurrogateModel,
    nmax: int = 100,
    pool_size: int | None = None,
    delta_percent: float | None = None,
    name: str = "RSpb",
    checkpoint=None,
    guard=UNSET,
    stream=None,
    batch_size: int | None = None,
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

    ``guard``/``stream`` behave as in :func:`biased_search` (the gate
    additionally widens its cutoff and audits under suspicion, as in
    guarded :func:`~repro.search.pruning.pruned_search`).  ``spec``
    supplies defaults for ``pool_size``, ``delta_percent``, ``guard``,
    and ``batch_size`` when those are not passed explicitly.
    """
    spec = resolve_spec(spec)
    if pool_size is None:
        pool_size = spec.pool.size
    if delta_percent is None:
        delta_percent = spec.gate.delta_percent
    if guard is UNSET:
        guard = spec.guard
    if batch_size is None:
        batch_size = spec.engine.batch_size
    if nmax < 1:
        raise SearchError(f"nmax must be >= 1, got {nmax}")
    if pool_size < 10:
        raise SearchError(f"pool_size must be >= 10, got {pool_size}")
    if not 0.0 < delta_percent < 100.0:
        raise SearchError(f"delta_percent must be in (0, 100), got {delta_percent}")
    proposer = PoolRankProposer(space, surrogate, pool_size=pool_size)
    gate = PredictionCutoffGate(proposer, delta_percent=delta_percent)
    proposer, guard_obj = _guarded_pool_proposer(
        proposer, guard, surrogate, stream, name
    )
    if guard_obj is not None:
        gate = GuardedGate(gate, guard_obj)
    engine = SearchEngine(
        evaluator,
        proposer,
        gate,
        nmax=nmax,
        name=name,
        space=space,
        checkpoint=checkpoint,
        batch_size=batch_size,
    )
    return engine.run()
