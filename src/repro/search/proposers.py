"""Candidate sources for the :class:`~repro.search.engine.SearchEngine`.

Each proposer walks one kind of candidate source and yields
:class:`~repro.search.protocols.Proposal`\\ s to the engine:

* :class:`StreamProposer` — the shared random stream, in order (RS;
  with a surrogate attached it also carries per-position predictions
  for RSp's quantile gate, scored one block per model call);
* :class:`PoolRankProposer` — a surrogate-scored pool in ascending
  order of predicted runtime (RSb, and the gated hybrid RSpb);
* :class:`ReplayProposer` — the source machine's evaluated
  configurations, in source order or sorted by source runtime
  (RSpf / RSbf);
* :class:`SMBOProposer` — an initial design followed by
  acquisition-maximizing candidates from a surrogate refit on the
  target observations (SMBO, optionally transfer-seeded).

The manipulator-technique adapter (GA, annealing, PSO, the AUC bandit,
...) lives in :mod:`repro.tuner.adapter` — the tuner layer imports the
search layer, never the reverse.

Simulated model costs are charged exactly where the pre-engine loops
charged them; every surrogate-scored pool (RSb's and RSpb's ranking,
RSp's cutoff pool, SMBO's seeded design, the warm-start seed phase) is
drawn and charged by one :func:`score_pool`.  The golden-trace suite
holds every proposer to bit-identical behavior.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from repro.ml.forest import RandomForestRegressor
from repro.search.protocols import (
    EngineContext,
    Proposal,
    SurrogateModel,
)
from repro.search.stream import SharedStream
from repro.searchspace.space import Configuration, SearchSpace
from repro.utils.rng import spawn_rng

__all__ = [
    "FAILURE_FEEDBACK_FACTOR",
    "failure_feedback",
    "score_pool",
    "BaseProposer",
    "StreamProposer",
    "PoolRankProposer",
    "ReplayProposer",
    "SMBOProposer",
]

_SQRT2 = math.sqrt(2.0)

#: RNG key label of RSb's pool draw (RSpb's too).
_RSB_POOL_RNG_LABEL = "rsb-pool"

#: Multiple of the worst value fed back so far that an unbounded
#: failure feeds back: learners need a finite number to rank against.
FAILURE_FEEDBACK_FACTOR = 10.0


def failure_feedback(runtime: float, failed: bool, censored: bool,
                     fed_back: Iterable[float]) -> float:
    """The objective value a learning proposer feeds back for an outcome.

    Successes feed back their runtime, and so do censored failures —
    a timeout's cap is already a usable lower bound.  An unbounded
    failure feeds back :data:`FAILURE_FEEDBACK_FACTOR` times the worst
    value in ``fed_back`` (everything fed back so far; ``1.0`` when
    nothing was), so a technique or a refitted model steers away from
    the failing region instead of training on ``inf``.
    """
    if not failed or censored:
        return runtime
    return FAILURE_FEEDBACK_FACTOR * max(fed_back, default=1.0)


def score_pool(space: SearchSpace, surrogate: SurrogateModel, rng,
               pool_size: int, clock) -> tuple[list[int], np.ndarray]:
    """Draw and score a surrogate pool: ``(indices, predictions)``.

    Charges ``clock`` the surrogate fit, draws ``min(pool_size,
    space.cardinality)`` linear indices from ``rng``, predicts them,
    and charges the scoring, in that order.  A resumed run passes
    ``clock=None``: its restored clock already paid, and the redraw
    from the same stateless RNG key is free.  The pool stays as
    indices (the same draws and prediction memo key as sampling
    Configurations); callers materialize only what they propose.
    """
    if clock is not None:
        clock.advance(surrogate.fit_seconds)
    indices = space.sample_indices(rng, min(pool_size, space.cardinality))
    predictions = surrogate.predict_indices(indices)
    if clock is not None:
        clock.advance(surrogate.predict_seconds(len(indices)))
    return indices, predictions


def _normal_cdf(z: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.vectorize(math.erf)(z / _SQRT2))


def _normal_pdf(z: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def _expected_improvement(mu: np.ndarray, sigma: np.ndarray, best: float) -> np.ndarray:
    """EI for minimization in log space."""
    sigma = np.maximum(sigma, 1e-9)
    z = (best - mu) / sigma
    return (best - mu) * _normal_cdf(z) + sigma * _normal_pdf(z)


class BaseProposer:
    """No-op lifecycle defaults; subclasses override what they need."""

    def restore(self, position: int, ctx: EngineContext) -> None:
        pass

    def propose_block(self, ctx: EngineContext, count: int) -> list[Proposal]:
        """A block of one: ``[propose()]``, or ``[]`` once the source is
        exhausted.  Proposers whose next candidate depends on the last
        observation keep this default; the engine never rewinds a block
        of one, so they need no ``rewind``."""
        proposal = self.propose(ctx)
        return [] if proposal is None else [proposal]

    def setup(self, ctx: EngineContext) -> None:
        pass

    def observe(self, ctx: EngineContext, proposal: Proposal, runtime: float,
                failed: bool, censored: bool) -> None:
        pass

    def state(self) -> dict:
        return {}


class StreamProposer(BaseProposer):
    """Walk a :class:`~repro.search.stream.SharedStream` in order.

    Without a surrogate this is RS's candidate source.  With one, each
    proposal carries the surrogate's runtime prediction for its stream
    position (RSp): a block is scored in one vectorized call, while the
    *clock* is still charged one query at a time by the gate — per-row
    predictions are independent, so traces are bit-identical for every
    block size.
    """

    def __init__(
        self,
        stream: SharedStream,
        surrogate: SurrogateModel | None = None,
    ) -> None:
        self.stream = stream
        self.surrogate = surrogate
        self._position = 0

    def restore(self, position: int, ctx: EngineContext) -> None:
        self._position = position

    def propose_block(self, ctx: EngineContext, count: int) -> list[Proposal]:
        """The next ``count`` stream positions (the stream is unbounded,
        so the block is always full)."""
        start = self._position
        configs = [self.stream[start + i] for i in range(count)]
        self._position += count
        if self.surrogate is None:
            return [Proposal(config) for config in configs]
        predicted = self.surrogate.predict(configs)
        return [
            Proposal(config, float(p)) for config, p in zip(configs, predicted)
        ]

    def rewind(self, count: int) -> None:
        """Hand back the last ``count`` unconsumed proposals."""
        self._position -= count


class PoolRankProposer(BaseProposer):
    """A surrogate-scored pool, proposed in ascending predicted runtime.

    RSb's candidate source (Algorithm 2's argmin-with-removal is
    equivalent to a stable presort).  Setup charges the model fit and
    the pool-scoring time, then ranks the whole pool once with a stable
    argsort (ties by index, NaNs last); a resumed run's restored clock
    already paid, and the pool redraws deterministically from its
    stateless RNG key.  Only the configurations a proposal reaches are
    materialized.  Proposals carry their prediction so a cutoff gate
    (the RSpb hybrid) can prune the tail of the ranking without extra
    model queries.
    """

    def __init__(
        self,
        space: SearchSpace,
        surrogate: SurrogateModel,
        pool_size: int,
    ) -> None:
        self.space = space
        self.surrogate = surrogate
        self.pool_size = pool_size
        self.predictions: np.ndarray = np.empty(0)
        self._pool_indices: list[int] = []
        self._order: np.ndarray = np.empty(0, dtype=np.int64)
        self._rank = 0

    def restore(self, position: int, ctx: EngineContext) -> None:
        self._rank = position

    def setup(self, ctx: EngineContext) -> None:
        indices, self.predictions = score_pool(
            self.space, self.surrogate,
            spawn_rng(_RSB_POOL_RNG_LABEL, self.space.name, ctx.name),
            self.pool_size, None if ctx.resumed else ctx.clock,
        )
        self._pool_indices = indices
        self._order = np.argsort(self.predictions, kind="stable")
        ctx.trace.metadata["pool_size"] = len(indices)

    def propose_block(self, ctx: EngineContext, count: int) -> list[Proposal]:
        """The next ``count`` pool entries in predicted order (may be
        short, or empty when the pool is exhausted)."""
        end = min(self._rank + count, len(self._order))
        block = []
        for rank in range(self._rank, end):
            slot = int(self._order[rank])
            block.append(Proposal(
                self.space.config_at(self._pool_indices[slot]),
                float(self.predictions[slot]),
            ))
        self._rank = end
        return block

    def rewind(self, count: int) -> None:
        self._rank -= count


class ReplayProposer(BaseProposer):
    """Replay the source machine's evaluated configurations (Ta).

    The model-free controls' candidate source: source order for RSpf
    (whose gate thresholds on the carried *source* runtime), ascending
    source runtime for RSbf.  Restricted to what the source already
    evaluated — which is exactly why the paper sees no performance
    speedups from these variants.
    """

    def __init__(
        self,
        training: Sequence[tuple[Configuration, float]],
        sort: bool = False,
    ) -> None:
        pairs = list(training)
        if sort:
            pairs = sorted(pairs, key=lambda pair: pair[1])
        self.pairs = pairs
        self._index = 0

    def restore(self, position: int, ctx: EngineContext) -> None:
        self._index = position

    def propose_block(self, ctx: EngineContext, count: int) -> list[Proposal]:
        """The next ``count`` replayed pairs (empty when exhausted)."""
        pairs = self.pairs[self._index : self._index + count]
        self._index += len(pairs)
        return [Proposal(config, runtime) for config, runtime in pairs]

    def rewind(self, count: int) -> None:
        self._index -= count


class SMBOProposer(BaseProposer):
    """Sequential model-based optimization's candidate source.

    Setup builds the initial design — the source surrogate's best pool
    picks when transfer-seeded, a random design otherwise.  Once the
    design is consumed, each proposal refits a random forest on the
    target observations (every ``refit_every`` evaluations, optionally
    blending median-rescaled source observations), scores a fresh
    candidate pool with the acquisition function, and proposes the
    argmax.  Refit and scoring costs are charged in ``propose``; a
    budget wall there ends the search like any other (the engine's
    budget-wall rule).  Failed evaluations enter the refit data as their
    :func:`failure_feedback` value, never as ``inf``.
    """

    def __init__(
        self,
        space: SearchSpace,
        rng,
        *,
        n_initial: int,
        pool_size: int,
        acquisition: str,
        kappa: float,
        source_surrogate: SurrogateModel | None = None,
        source_data: Sequence[tuple[Configuration, float]] | None = None,
        refit_every: int = 1,
        forest: "ForestSpec | None" = None,
    ) -> None:
        from repro.spec import SMBOSpec

        self.space = space
        self.rng = rng
        self.n_initial = n_initial
        self.pool_size = pool_size
        self.acquisition = acquisition
        self.kappa = kappa
        self.source_surrogate = source_surrogate
        self.source_data = source_data
        self.refit_every = refit_every
        # The refit forest's hyperparameters come from the shared
        # ForestSpec default (deduplicated with the surrogate's), not a
        # second hard-coded copy.
        self.forest = forest if forest is not None else SMBOSpec().forest
        self._design: list[Configuration] = []
        self._block_design: list[Configuration] = []
        self._observations: list[tuple[Configuration, float]] = []
        self._evaluated: set[int] = set()
        self._model: RandomForestRegressor | None = None
        self._since_fit = refit_every
        self._last_was_design = False

    def setup(self, ctx: EngineContext) -> None:
        if self.source_surrogate is not None:
            # Only the n_initial design picks are materialized.  The
            # design selection keeps the historical *unstable* argsort —
            # its result is reproducible because the prediction array is
            # bit-identical.
            indices, preds = score_pool(
                self.space, self.source_surrogate, self.rng,
                self.pool_size, ctx.clock,
            )
            design = [
                self.space.config_at(indices[int(i)])
                for i in np.argsort(preds)[: self.n_initial]
            ]
        else:
            design = self.space.sample(
                self.rng, min(self.n_initial, self.space.cardinality)
            )
        self._design = list(design)
        self._since_fit = self.refit_every  # force a first fit

    def propose(self, ctx: EngineContext) -> Proposal | None:
        if self._design:
            self._last_was_design = True
            return Proposal(self._design.pop(0))
        self._last_was_design = False
        clock = ctx.clock
        if self._since_fit >= self.refit_every or self._model is None:
            self._since_fit = 0
            training = list(self._observations)
            if self.source_data:
                src_med = float(np.median([y for _, y in self.source_data]))
                tgt_med = float(np.median([y for _, y in self._observations]))
                scale = tgt_med / src_med if src_med > 0 else 1.0
                training += [(c, y * scale) for c, y in self.source_data]
            X = self.space.encode_many([c for c, _ in training])
            y = np.log([v for _, v in training])
            self._model = RandomForestRegressor.from_spec(self.forest)
            self._model.fit(X, y)
            clock.advance(0.5 + 2e-3 * len(training))  # simulated fit cost
        n = min(self.pool_size, self.space.cardinality)
        # Same RNG draws and candidate set as sampling Configurations,
        # but the pool is encoded straight from indices and only the
        # acquisition argmax becomes a Configuration.
        indices = [
            i for i in self.space.sample_indices(self.rng, n)
            if i not in self._evaluated
        ]
        if not indices:
            return None
        Xc = self.space.encode_indices(indices)
        mu = self._model.predict(Xc)
        clock.advance(2e-4 * len(Xc))
        if self.acquisition == "mean":
            scores = -mu
        else:
            sigma = self._model.predict_std(Xc)
            if self.acquisition == "lcb":
                scores = -(mu - self.kappa * sigma)
            else:
                best = math.log(min(v for _, v in self._observations))
                scores = _expected_improvement(mu, sigma, best)
        return Proposal(self.space.config_at(indices[int(np.argmax(scores))]))

    def propose_block(self, ctx: EngineContext, count: int) -> list[Proposal]:
        """Design-phase proposals in one block; blocks of one in the
        model phase, where each proposal depends on the previous
        observation."""
        if not self._design:
            return super().propose_block(ctx, count)
        take = self._design[:count]
        del self._design[:count]
        self._last_was_design = True
        self._block_design = take
        return [Proposal(config) for config in take]

    def rewind(self, count: int) -> None:
        tail = self._block_design[len(self._block_design) - count :]
        self._design[:0] = tail

    def observe(self, ctx: EngineContext, proposal: Proposal, runtime: float,
                failed: bool, censored: bool) -> None:
        self._evaluated.add(proposal.config.index)
        feedback = failure_feedback(
            runtime, failed, censored, (y for _, y in self._observations)
        )
        self._observations.append((proposal.config, feedback))
        if not self._last_was_design:
            self._since_fit += 1
