"""Online transfer search: refine the surrogate with target data.

The paper's RSb fixes the surrogate once, from source data only.  Its
conclusion asks whether the approach generalizes further; the natural
next step (standard in later systems like ytopt/GPTune) is to *keep
learning on the target*: start from the source-trained model, and
periodically refit on the union of source data and the target
observations gathered so far, re-ranking the remaining pool.

``online_biased_search`` implements that search as an
:class:`OnlineRankProposer` run by the shared
:class:`~repro.search.engine.SearchEngine`, so budget walls (in the
initial fit, a refit, or an evaluation) and failed evaluations are
accounted exactly as in every other search.  With ``refit_every``
larger than ``nmax`` it degenerates to exactly RSb, which the tests
exploit.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import SearchError
from repro.search.engine import SearchEngine
from repro.search.proposers import BaseProposer, failure_feedback
from repro.search.protocols import EngineContext, Proposal
from repro.search.result import SearchTrace
from repro.searchspace.space import Configuration, SearchSpace
from repro.spec import TunerSpec, resolve_spec
from repro.transfer.surrogate import Surrogate
from repro.utils.rng import spawn_rng

__all__ = ["OnlineRankProposer", "online_biased_search"]

#: Share of the (rescaled) source rows each refit subsamples, so the
#: target observations gradually dominate the training data.
SOURCE_WEIGHT = 0.5


class OnlineRankProposer(BaseProposer):
    """A surrogate-ranked pool, re-ranked by refits on target data.

    Setup samples the pool as linear indices, fits the surrogate on the
    source data, and ranks the pool by prediction (fit and prediction
    time charged in that order).  After every ``refit_every``
    observations the next proposal first refits on a
    :data:`SOURCE_WEIGHT` subsample of rescaled source data plus the
    target observations and re-ranks the rest of the pool.  Only the
    proposal handed out becomes a Configuration.  A failed
    evaluation enters the refit data as its :func:`failure_feedback`
    value.  Each proposal depends on the refits before it, so blocks
    are of one.
    """

    def __init__(
        self,
        space: SearchSpace,
        source_data: Sequence[tuple[Configuration, float]],
        rng,
        *,
        pool_size: int,
        refit_every: int,
    ) -> None:
        self.space = space
        self.source_data = source_data
        self.rng = rng
        self.pool_size = pool_size
        self.refit_every = refit_every
        self._ranked: list[int] = []
        self._target_obs: list[tuple[Configuration, float]] = []
        self._since_refit = 0

    def _fit_and_rank(self, clock, pool: list[int]) -> list[int]:
        """Fit on blended data, return the indices ``pool`` sorted by
        prediction."""
        source = self.source_data
        if not self._target_obs:
            training = list(source)
        else:
            # Rescale the source runtimes onto the target scale using
            # the medians of both.
            src_med = float(np.median([y for _, y in source]))
            tgt_med = float(np.median([y for _, y in self._target_obs]))
            scale = tgt_med / src_med if src_med > 0 else 1.0
            keep = max(1, int(round(SOURCE_WEIGHT * len(source))))
            idx = self.rng.choice(len(source), size=keep, replace=False)
            training = [(source[i][0], source[i][1] * scale) for i in idx]
            training += self._target_obs
        surrogate = Surrogate(self.space).fit(training)
        clock.advance(surrogate.fit_seconds)
        preds = surrogate.predict_indices(pool)
        clock.advance(surrogate.predict_seconds(len(pool)))
        order = np.argsort(preds, kind="stable")
        return [pool[int(i)] for i in order]

    def setup(self, ctx: EngineContext) -> None:
        pool = self.space.sample_indices(
            self.rng, min(self.pool_size, self.space.cardinality)
        )
        self._ranked = self._fit_and_rank(ctx.clock, pool)

    def propose(self, ctx: EngineContext) -> Proposal | None:
        if self._since_refit >= self.refit_every:
            self._since_refit = 0
            self._ranked = self._fit_and_rank(ctx.clock, self._ranked)
        if not self._ranked:
            return None
        return Proposal(self.space.config_at(self._ranked.pop(0)))

    def observe(self, ctx: EngineContext, proposal: Proposal, runtime: float,
                failed: bool, censored: bool) -> None:
        feedback = failure_feedback(
            runtime, failed, censored, (y for _, y in self._target_obs)
        )
        self._target_obs.append((proposal.config, feedback))
        self._since_refit += 1


def online_biased_search(
    evaluator,
    space: SearchSpace,
    source_data: Sequence[tuple[Configuration, float]],
    nmax: int = 100,
    refit_every: int = 20,
    name: str = "RSb+online",
    spec: TunerSpec | None = None,
) -> SearchTrace:
    """RSb with periodic surrogate refits on target observations.

    Parameters
    ----------
    source_data:
        The (configuration, runtime) pairs from the source machine, Ta.
    refit_every:
        Refit and re-rank after this many target evaluations.  Source
        runtimes are rescaled toward the target's scale before each
        refit (sources run at different absolute speeds), and only a
        :data:`SOURCE_WEIGHT` share of them is kept.
    spec:
        A :class:`repro.spec.TunerSpec` (default spec when ``None``):
        the pool holds ``spec.pool.size`` configurations, and the
        engine runs blocks of ``spec.engine.batch_size`` (this
        proposer hands out blocks of one whatever the size).

    ``trace.metadata["refits"]`` counts the refits a run of this length
    makes.
    """
    spec = resolve_spec(spec)
    if refit_every < 1:
        raise SearchError(f"refit_every must be >= 1, got {refit_every}")
    if not source_data:
        raise SearchError("online transfer needs source data")

    proposer = OnlineRankProposer(
        space,
        source_data,
        spawn_rng("online-rsb", space.name, name),
        pool_size=spec.pool.size,
        refit_every=refit_every,
    )
    trace = SearchEngine(
        evaluator, proposer, nmax=nmax, name=name, space=space,
        batch_size=spec.engine.batch_size,
    ).run()
    trace.metadata["refits"] = max(0, (trace.n_evaluations - 1) // refit_every)
    return trace
