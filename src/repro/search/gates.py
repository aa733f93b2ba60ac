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

import numpy as np

from repro.search.protocols import EngineContext, Proposal, SurrogateModel
from repro.search.proposers import PoolRankProposer
from repro.searchspace.space import SearchSpace
from repro.utils.rng import spawn_rng
from repro.utils.stats import quantile

__all__ = [
    "QuantileGate",
    "ReplayThresholdGate",
    "PredictionCutoffGate",
]


class QuantileGate:
    """RSp's pruning test (Algorithm 1).

    Setup charges the surrogate fit, samples a pool of ``pool_size``
    configurations from a deterministic RNG key, predicts their
    runtimes (charged as one batch), and sets the cutoff ``∆`` to the
    ``δ``-quantile of those predictions.  Each admission decision
    charges one model query and admits predictions below ``∆``.  On a
    resumed run the restored clock already paid the setup charges; the
    recomputation itself is deterministic and free.
    """

    def __init__(
        self,
        space: SearchSpace,
        surrogate: SurrogateModel,
        delta_percent: float,
        pool_size: int,
        rng_label: str = "rsp-pool",
    ) -> None:
        self.space = space
        self.surrogate = surrogate
        self.delta_percent = delta_percent
        self.pool_size = pool_size
        self.rng_label = rng_label
        self.cutoff: float | None = None
        self._scored = None  # pool predictions, kept for cutoff_at()

    @classmethod
    def from_spec(
        cls,
        space: SearchSpace,
        surrogate: SurrogateModel,
        spec,
        rng_label: str = "rsp-pool",
    ) -> "QuantileGate":
        """Build the gate from a :class:`repro.spec.TunerSpec` — δ from
        its :class:`~repro.spec.GateSpec`, the pool size from its
        :class:`~repro.spec.PoolSpec`."""
        return cls(
            space,
            surrogate,
            delta_percent=spec.gate.delta_percent,
            pool_size=spec.pool.size,
            rng_label=rng_label,
        )

    def setup(self, ctx: EngineContext) -> None:
        clock = ctx.clock
        if not ctx.resumed:
            clock.advance(self.surrogate.fit_seconds)
        pool_rng = spawn_rng(self.rng_label, self.space.name, ctx.name)
        # The pool stays as linear indices: the same RNG draws and the
        # same prediction memo key as sampling Configurations, none built.
        pool = self.space.sample_indices(
            pool_rng, min(self.pool_size, self.space.cardinality)
        )
        predictions = self.surrogate.predict_indices(pool)
        if not ctx.resumed:
            clock.advance(self.surrogate.predict_seconds(len(pool)))
        self._scored = predictions
        self.cutoff = quantile(predictions, self.delta_percent / 100.0)
        ctx.trace.metadata["cutoff"] = self.cutoff

    def admit(self, ctx: EngineContext, proposal: Proposal) -> bool:
        ctx.clock.advance(self.surrogate.predict_seconds(1))
        return not (proposal.predicted >= self.cutoff)

    @property
    def admit_charge(self) -> float:
        """Simulated seconds one admission decision charges — the one
        model query :meth:`admit` pays.  The batched engine applies it
        per element, in stream order, so clock bytes match serial."""
        return self.surrogate.predict_seconds(1)

    def admit_vector(self, predicted: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`admit` over a block of predictions.

        Same skip test, same NaN semantics: ``not (p >= cutoff)``
        admits NaN predictions, so the complement form is used."""
        return ~(predicted >= self.cutoff)

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

    #: Admission is a comparison against a carried source runtime: free.
    admit_charge = 0.0

    def setup(self, ctx: EngineContext) -> None:
        self.cutoff = quantile(self.source_runtimes, self.delta_percent / 100.0)
        ctx.trace.metadata["cutoff"] = self.cutoff

    def admit(self, ctx: EngineContext, proposal: Proposal) -> bool:
        return not (proposal.predicted >= self.cutoff)

    def admit_vector(self, predicted: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`admit` (NaN admits, as in the scalar form)."""
        return ~(predicted >= self.cutoff)


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

    #: The pool predictions were paid for in the proposer's setup: free.
    admit_charge = 0.0

    def setup(self, ctx: EngineContext) -> None:
        # Runs after the proposer's setup, so its pool is scored.
        self.cutoff = quantile(self.proposer.predictions, self.delta_percent / 100.0)
        ctx.trace.metadata["cutoff"] = self.cutoff

    def admit(self, ctx: EngineContext, proposal: Proposal) -> bool:
        return not (proposal.predicted >= self.cutoff)

    def admit_vector(self, predicted: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`admit` (NaN admits, as in the scalar form)."""
        return ~(predicted >= self.cutoff)

    @property
    def delta_fraction(self) -> float:
        return self.delta_percent / 100.0

    def cutoff_at(self, fraction: float) -> float:
        """The cutoff at another quantile of the proposer's pool
        predictions — the guard's quantile-widening hook (free, like
        :meth:`admit`)."""
        return quantile(self.proposer.predictions, fraction)
