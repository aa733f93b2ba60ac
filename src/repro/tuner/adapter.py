"""Manipulator-technique adapter: techniques as an engine Proposer.

Bridges the OpenTuner-style stack (a bound
:class:`~repro.tuner.technique.SearchTechnique` proposing into a shared
:class:`~repro.tuner.database.ResultsDatabase`) to the
:class:`~repro.search.engine.SearchEngine` loop.  The adapter owns
everything technique-specific — the results cache (re-proposals of
measured configurations cost nothing, as in OpenTuner), the stall guard
that ends a run when a technique converges onto already-measured
configurations, database bookkeeping for checkpoints, and the optional
surrogate warm-start seed phase — while the engine owns clocks,
budgets, failure recording, and trace recording.

This module lives in ``tuner/`` rather than next to the other proposers
because the dependency points one way: the tuner layer imports the
search layer (``runner`` → ``engine``), never the reverse; ``make
lint`` enforces it.
"""

from __future__ import annotations

import numpy as np

from repro.search.protocols import EngineContext, Proposal, SurrogateModel
from repro.search.proposers import BaseProposer, failure_feedback, score_pool
from repro.searchspace.space import SearchSpace
from repro.tuner.database import Result, ResultsDatabase
from repro.tuner.technique import SearchTechnique
from repro.utils.rng import spawn_rng

__all__ = ["TechniqueProposer"]

#: RNG key label of the warm-start seed phase's pool draw.
_WARM_START_POOL_RNG_LABEL = "warm-start-pool"


class TechniqueProposer(BaseProposer):
    """Drive a bound search technique as the engine's candidate source.

    Every outcome is fed to the technique (and stored in the database)
    as its :func:`~repro.search.proposers.failure_feedback` value: a
    failed evaluation feeds back its censored bound when it has one,
    otherwise a finite penalty relative to the worst value fed back so
    far, so the technique steers away from the failing region.

    ``seed_evaluations > 0`` prepends a surrogate warm-start phase: the
    model's best ``seed_evaluations`` pool picks are proposed first
    (fit and pool-scoring time charged in setup, except on a resumed
    run, whose restored clock already paid), each result fed to the
    technique before it takes over.  The pool is scored by linear
    index; only those picks become Configurations.
    """

    def __init__(
        self,
        technique: SearchTechnique,
        database: ResultsDatabase,
        space: SearchSpace,
        *,
        result_label: str,
        surrogate: SurrogateModel | None,
        pool_size: int,
        seed_evaluations: int,
    ) -> None:
        self.technique = technique
        self.database = database
        self.space = space
        self.result_label = result_label
        self.surrogate = surrogate
        self.pool_size = pool_size
        self.seed_evaluations = seed_evaluations
        self._stall = 0
        self._seeds: list = []

    def restore(self, position: int, ctx: EngineContext) -> None:
        self._stall = 0
        # Replay the checkpointed database as feedback so the technique
        # regains its knowledge; the cache makes re-proposals free.  A
        # stateful technique's internal RNG is *not* restored — the
        # continuation explores from rebuilt knowledge rather than
        # replaying the interrupted run bit-for-bit.
        for row in ctx.extra.get("database", []):
            config = self.space.config_at(int(row["config"]))
            result = Result(
                config=config,
                value=float(row["value"]),
                technique=row["technique"],
                elapsed=float(row["elapsed"]),
            )
            self.database.add(result)
            self.technique.feedback(config, result.value)

    def setup(self, ctx: EngineContext) -> None:
        if self.seed_evaluations <= 0:
            return
        pool, predictions = score_pool(
            self.space, self.surrogate,
            spawn_rng(_WARM_START_POOL_RNG_LABEL, self.space.name, ctx.name),
            self.pool_size, None if ctx.resumed else ctx.clock,
        )
        order = np.argsort(predictions, kind="stable")
        self._seeds = [
            self.space.config_at(pool[int(i)])
            for i in order[: min(self.seed_evaluations, ctx.nmax)]
        ]

    def propose(self, ctx: EngineContext) -> Proposal | None:
        while self._seeds:
            config = self._seeds.pop(0)
            # Pool picks are distinct, so a seed is in the database only
            # when a resumed run measured it before the cut; restore()
            # already fed its value back.
            if not self.database.has(config):
                return Proposal(config)
        while True:
            config = self.technique.propose()
            cached = self.database.lookup(config)
            if cached is not None:
                # Feed the remembered value back; costs no search time.
                self.technique.feedback(config, cached.value)
                self._stall += 1
                if self._stall > 50 * ctx.nmax:
                    return None  # technique converged onto measured configs
                continue
            self._stall = 0
            return Proposal(config)

    def observe(self, ctx: EngineContext, proposal: Proposal, runtime: float,
                failed: bool, censored: bool) -> None:
        feedback = failure_feedback(
            runtime, failed, censored, (r.value for r in self.database.results())
        )
        self.database.add(
            Result(
                config=proposal.config,
                value=feedback,
                technique=self.result_label,
                elapsed=ctx.clock.now,
            )
        )
        self.technique.feedback(proposal.config, feedback)

    def state(self) -> dict:
        return {
            "database": [
                {
                    "config": r.config.index,
                    "value": r.value,
                    "technique": r.technique,
                    "elapsed": r.elapsed,
                }
                for r in self.database.results()
            ]
        }
