"""The single search-evaluation loop behind every variant.

The paper's five algorithms (RS, RSp, RSb, RSpf, RSbf), the SMBO
model-based search, online RSb, and the OpenTuner-style technique runs
(:func:`~repro.tuner.runner.warm_started_search`, cold or warm) are all
one loop — walk a candidate source, optionally gate each candidate by a
predicted-runtime threshold, pay for what you evaluate — that the repo
used to implement eight separate times.  :class:`SearchEngine` is that
loop, written once.  It owns every shared concern:

* **clock charging** — evaluation costs and the model-query costs
  raised by gates;
* **budgets** — the ``nmax`` evaluation budget, the optional proposal
  cap (RSp walks at most ``50 * nmax`` stream positions), and
  :class:`~repro.errors.BudgetExhaustedError` from the simulated clock;
* **failure recording** — degraded measurements and recoverable
  :class:`~repro.errors.EvaluationFailure`\\ s become failed/censored
  trace records at their stream position, so common-random-numbers
  alignment survives faults;
* **stream position accounting** — proposals consumed, skips since the
  last record, ``stream_positions`` metadata;
* **checkpoint/resume** — periodic and final
  :class:`~repro.reliability.checkpoint.CheckpointManager` snapshots,
  restore of the trace/clock/reliability state, and proposer/gate
  state threading through the snapshot's ``extra`` payload.

Every search follows the same two rules:

* **One budget-wall rule.**  Wherever the wall hits — a proposer's or
  gate's ``setup``, ``propose_block`` (SMBO's refit, online RSb's
  re-rank), a gate's model query, or an evaluation — the search
  returns its partial trace with ``exhausted_budget=True`` and
  ``total_elapsed == clock.now``.  The proposal in flight is handed
  back (not counted as consumed) and nothing is charged beyond what
  the clock accepted.
* **One failure rule.**  Evaluation failures are always recorded at
  their position; proposers that learn from outcomes turn them into
  one feedback value with
  :func:`~repro.search.proposers.failure_feedback`.

What *varies* between algorithms is factored into two small
components — a :class:`~repro.search.protocols.Proposer` crossed with a
:class:`~repro.search.protocols.Gate` (see
:mod:`repro.search.proposers` / :mod:`repro.search.gates`).  A new
search is one ``SearchEngine(evaluator, proposer, gate, ...)`` call
instead of another hand-rolled loop; the prune-then-bias hybrid
(:func:`~repro.search.biasing.hybrid_search`) is the first.
Engine-backed variants produce bit-identical traces to the code they
replaced (``tests/search/test_golden_equivalence.py``).
"""

from __future__ import annotations

from repro.errors import BudgetExhaustedError, EvaluationFailure, SearchError
from repro.search.protocols import EngineContext, Gate, Proposer
from repro.search.result import EvaluationRecord, SearchTrace
from repro.searchspace.space import SearchSpace

__all__ = ["SearchEngine"]


class SearchEngine:
    """One search = evaluator x proposer x gate, under one accounting.

    Parameters
    ----------
    evaluator:
        The :class:`~repro.search.protocols.Evaluator` whose ``clock``
        the whole search charges.
    proposer:
        The candidate source.
    gate:
        Admission filter; ``None`` admits everything (RS, RSb, the
        techniques).
    nmax:
        Evaluation budget: recorded evaluations, successful or failed.
    name:
        Algorithm label on the trace (and in deterministic RNG keys).
    space:
        The search space (checkpoint records rebuild from it).
    stream:
        The :class:`~repro.search.stream.SharedStream` to re-materialize
        on resume, when the proposer walks one.
    position_cap:
        Hard cap on proposals consumed (RSp's ``50 * nmax``);
        ``None`` leaves the proposer to exhaust itself.  When set, the
        proposals consumed are recorded as
        ``trace.metadata["stream_positions"]``.
    checkpoint:
        Optional :class:`~repro.reliability.checkpoint.CheckpointManager`;
        when its file exists the search resumes from it.
    batch_size:
        Propose/gate/score candidates in blocks of up to this many
        (``1`` is one candidate per iteration); every factory passes
        its spec's ``engine.batch_size``.  Purely an execution
        strategy: every clock charge is still applied per candidate in
        stream order, and proposals a block did not consume
        are handed back via ``rewind``, so traces and checkpoint bytes
        are identical for every batch size (the golden-trace suite
        enforces this).  Proposers that decide one candidate at a time
        (techniques, SMBO's model phase, online RSb, an armed guard)
        hand out blocks of one whatever the batch size.
    """

    def __init__(
        self,
        evaluator,
        proposer: Proposer,
        gate: Gate | None = None,
        *,
        nmax: int,
        name: str,
        space: SearchSpace,
        stream=None,
        position_cap: int | None = None,
        checkpoint=None,
        batch_size: int,
    ) -> None:
        if nmax < 1:
            raise SearchError(f"nmax must be >= 1, got {nmax}")
        if batch_size < 1:
            raise SearchError(f"batch_size must be >= 1, got {batch_size}")
        self.evaluator = evaluator
        self.proposer = proposer
        self.gate = gate
        self.nmax = nmax
        self.name = name
        self.space = space
        self.stream = stream
        self.position_cap = position_cap
        self.checkpoint = checkpoint
        self.batch_size = batch_size

    def _extra(self, skipped: int) -> dict:
        """The checkpoint ``extra`` payload: proposer state, plus the
        pending-skip counter when an admission gate is in play."""
        extra = dict(self.proposer.state())
        if self.gate is not None:
            extra["skipped"] = skipped
        return extra

    def run(self) -> SearchTrace:
        """Run the composed search to its budget; returns the trace."""
        trace = SearchTrace(algorithm=self.name)
        clock = self.evaluator.clock
        position = 0
        extra: dict = {}
        if self.checkpoint is not None:
            position, extra = self.checkpoint.restore(
                trace, self.space, evaluator=self.evaluator, stream=self.stream
            )
        ctx = EngineContext(
            evaluator=self.evaluator,
            clock=clock,
            trace=trace,
            nmax=self.nmax,
            name=self.name,
            resumed=position > 0,
            extra=extra,
        )
        skipped = int(extra.get("skipped", 0))
        self.proposer.restore(position, ctx)

        # One-time setup (model fits, pool scoring, cutoffs).  A budget
        # wall here ends the search before it proposed anything, so
        # there is no progress to checkpoint.
        try:
            self.proposer.setup(ctx)
            if self.gate is not None:
                self.gate.setup(ctx)
        except BudgetExhaustedError:
            trace.exhausted_budget = True
            set_up = False
        else:
            set_up = True
            position, skipped = self._loop(ctx, trace, clock, position, skipped)

        if self.position_cap is not None:
            trace.metadata["stream_positions"] = position
        trace.total_elapsed = max(trace.total_elapsed, clock.now)
        if set_up and self.checkpoint is not None:
            self.checkpoint.save(
                trace, position=position, evaluator=self.evaluator,
                extra=self._extra(skipped),
            )
        return trace

    def _loop(self, ctx, trace, clock, position, skipped):
        """The search loop: propose a block, then account per candidate.

        Proposals come up to ``batch_size`` at a time from
        ``propose_block``; each is then admitted by one ``gate.admit``
        call, in stream order, so a gate's model-query charge lands on
        the clock exactly where a block of one would put it.  Every
        early exit (budget wall, nmax) hands strictly unconsumed
        proposals back via ``rewind``, so position accounting and
        checkpoint bytes do not depend on the block size.
        """
        proposer = self.proposer
        gate = self.gate
        evaluator = self.evaluator
        checkpoint = self.checkpoint
        batch = self.batch_size
        stop = False
        while not stop and trace.n_evaluations < self.nmax and (
            self.position_cap is None or position < self.position_cap
        ):
            want = batch
            if self.position_cap is not None:
                want = min(want, self.position_cap - position)
            if gate is None:
                # Ungated searches record every proposal, so the block
                # never needs to overshoot the evaluation budget.
                want = min(want, self.nmax - trace.n_evaluations)
            try:
                block = proposer.propose_block(ctx, want)
            except BudgetExhaustedError:
                # A wall inside the proposer (SMBO's refit, online
                # RSb's re-rank): nothing was proposed, nothing consumed.
                trace.exhausted_budget = True
                break
            if not block:
                break  # source exhausted
            consumed = 0
            for proposal in block:
                if trace.n_evaluations >= self.nmax:
                    break
                position += 1
                consumed += 1
                try:
                    if gate is not None and not gate.admit(ctx, proposal):
                        skipped += 1
                        continue
                    measurement = evaluator.evaluate(proposal.config)
                except BudgetExhaustedError:
                    # The proposal in flight is handed back: its position
                    # is not counted, so a resume retries it.
                    position -= 1
                    trace.exhausted_budget = True
                    stop = True
                    break
                except EvaluationFailure as exc:
                    # Censored at a timeout's cap when there is one.
                    censored_at = getattr(exc, "censored_at", None)
                    censored = censored_at is not None
                    runtime = float(censored_at) if censored else float("inf")
                    failed = True
                else:
                    runtime = measurement.runtime_seconds
                    failed = bool(getattr(measurement, "failed", False))
                    censored = bool(getattr(measurement, "censored", False))
                proposer.observe(ctx, proposal, runtime, failed, censored)
                trace.add(
                    EvaluationRecord(
                        config=proposal.config,
                        runtime=runtime,
                        elapsed=clock.now,
                        skipped_before=skipped,
                        failed=failed,
                        censored=censored,
                    )
                )
                skipped = 0
                if checkpoint is not None:
                    checkpoint.maybe_save(
                        trace, position=position, evaluator=evaluator,
                        extra=self._extra(skipped),
                    )
            if consumed < len(block):
                proposer.rewind(len(block) - consumed)
        return position, skipped
