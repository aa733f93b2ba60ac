"""Admission gates for the :class:`~repro.search.engine.SearchEngine`.

A gate decides which proposals are worth paying an evaluation for.  A
rejected proposal consumes its position (the skip is recorded on the
next accepted evaluation's ``skipped_before``) but no evaluation time —
except where the *decision itself* costs simulated time, which the gate
charges to the clock.  ``gate=None`` evaluates every proposal (RS, RSb,
the techniques); the gates are:

* :class:`QuantileGate` — Algorithm 1's pruning test: a surrogate
  prediction per position, admitted below the ``δ``-quantile cutoff
  ``∆`` of a scored pool, each query charged to the clock (RSp);
* :class:`ReplayThresholdGate` — the model-free pruning test: the same
  cutoff computed directly from *source* runtimes, compared against the
  source runtime carried on each replayed proposal, for free (RSpf);
* :class:`PredictionCutoffGate` — the prune-then-bias hybrid's test:
  the ``δ``-quantile of a pool ranker's own predictions, also free
  because those predictions were already paid for in setup (RSpb).

Every gate mirrors the legacy loops' ``predicted >= cutoff`` skip test
(NaN predictions are evaluated, not skipped) so the golden-trace suite
holds byte-for-byte.
"""

from __future__ import annotations

from repro.search.protocols import EngineContext, Proposal, SurrogateModel
from repro.search.proposers import PoolRankProposer, score_pool
from repro.searchspace.space import SearchSpace
from repro.utils.rng import spawn_rng
from repro.utils.stats import quantile

__all__ = [
    "QuantileGate",
    "ReplayThresholdGate",
    "PredictionCutoffGate",
]

#: RNG key label of RSp's cutoff pool draw.
_RSP_POOL_RNG_LABEL = "rsp-pool"


class QuantileGate:
    """RSp's pruning test (Algorithm 1).

    Setup scores a pool of ``pool_size`` configurations drawn from a
    deterministic RNG key (:func:`~repro.search.proposers.score_pool`
    charges the fit and the batch prediction) and sets the cutoff
    ``∆`` to the ``δ``-quantile of those predictions.  Each admission
    decision charges one model query and admits predictions below
    ``∆``.  On a
    resumed run the restored clock already paid the setup charges; the
    recomputation itself is deterministic and free.
    """

    def __init__(
        self,
        space: SearchSpace,
        surrogate: SurrogateModel,
        delta_percent: float,
        pool_size: int,
    ) -> None:
        self.space = space
        self.surrogate = surrogate
        self.delta_percent = delta_percent
        self.pool_size = pool_size
        self.cutoff: float | None = None
        self._scored = None  # pool predictions, kept for cutoff_at()

    @classmethod
    def from_spec(
        cls,
        space: SearchSpace,
        surrogate: SurrogateModel,
        spec,
    ) -> "QuantileGate":
        """Build the gate from a :class:`repro.spec.TunerSpec` — δ from
        its :class:`~repro.spec.GateSpec`, the pool size from its
        :class:`~repro.spec.PoolSpec`."""
        return cls(
            space,
            surrogate,
            delta_percent=spec.gate.delta_percent,
            pool_size=spec.pool.size,
        )

    def setup(self, ctx: EngineContext) -> None:
        _, self._scored = score_pool(
            self.space, self.surrogate,
            spawn_rng(_RSP_POOL_RNG_LABEL, self.space.name, ctx.name),
            self.pool_size, None if ctx.resumed else ctx.clock,
        )
        self.cutoff = quantile(self._scored, self.delta_percent / 100.0)
        ctx.trace.metadata["cutoff"] = self.cutoff

    def admit(self, ctx: EngineContext, proposal: Proposal) -> bool:
        ctx.clock.advance(self.surrogate.predict_seconds(1))
        return not (proposal.predicted >= self.cutoff)

    @property
    def delta_fraction(self) -> float:
        return self.delta_percent / 100.0

    def cutoff_at(self, fraction: float) -> float:
        """The cutoff this gate would use at another quantile — how a
        guard widens the pruning test without new model queries (the
        pool predictions were scored, and charged, in setup)."""
        return quantile(self._scored, fraction)


class ReplayThresholdGate:
    """RSpf's model-free pruning test.

    The cutoff is the ``δ``-quantile of the *source* runtimes; each
    replayed proposal carries its source runtime as ``predicted``, so
    admission is a comparison — no model, no clock charge.
    """

    def __init__(
        self,
        source_runtimes,
        delta_percent: float,
    ) -> None:
        self.source_runtimes = list(source_runtimes)
        self.delta_percent = delta_percent
        self.cutoff: float | None = None

    def setup(self, ctx: EngineContext) -> None:
        self.cutoff = quantile(self.source_runtimes, self.delta_percent / 100.0)
        ctx.trace.metadata["cutoff"] = self.cutoff

    def admit(self, ctx: EngineContext, proposal: Proposal) -> bool:
        return not (proposal.predicted >= self.cutoff)


class PredictionCutoffGate:
    """The prune-then-bias hybrid's test (RSpb).

    Gates a :class:`~repro.search.proposers.PoolRankProposer`'s sorted
    pool by the ``δ``-quantile of that proposer's own predictions:
    only the best-predicted ``δ`` fraction of the pool is evaluated, in
    ascending predicted order — RSb's exploitation restricted to RSp's
    admissible set.  Free at admission time: the predictions were paid
    for when the pool was scored.
    """

    def __init__(
        self,
        proposer: PoolRankProposer,
        delta_percent: float,
    ) -> None:
        self.proposer = proposer
        self.delta_percent = delta_percent
        self.cutoff: float | None = None

    def setup(self, ctx: EngineContext) -> None:
        # Runs after the proposer's setup, so its pool is scored.
        self.cutoff = quantile(self.proposer.predictions, self.delta_percent / 100.0)
        ctx.trace.metadata["cutoff"] = self.cutoff

    def admit(self, ctx: EngineContext, proposal: Proposal) -> bool:
        return not (proposal.predicted >= self.cutoff)

    @property
    def delta_fraction(self) -> float:
        return self.delta_percent / 100.0

    def cutoff_at(self, fraction: float) -> float:
        """The cutoff at another quantile of the proposer's pool
        predictions — the guard's quantile-widening hook (free, like
        :meth:`admit`)."""
        return quantile(self.proposer.predictions, fraction)
