"""checkpointed_grid: journaled grids of checkpointed HPL searches.

Each operation is one round: a ``run_grid`` over ten cells on two
supervised worker processes, journaled to a fresh registry.  Four cells
are long searches (RS and RSb on HPL, ``nmax=300``) under a
``CheckpointManager`` at its default interval, and one is a small HPL
transfer session checkpointed through ``run(checkpoint_path=...)``.
Each runs twice: once uninterrupted, and once cut (a smaller evaluation
budget for a search, fewer target variants for a session) and then
resumed from its checkpoint, so the two traces must be identical.  The
round then re-invokes the same grid ``RESUMES`` times; each call must
merge every cell from the registry and execute none.  A round's latency
sample is the CPU time per cell of its first invocation; the resume
time is reported, not gated, because at well under a millisecond it
moved by 30% between runs on a shared host.
"""

from __future__ import annotations

import os
import shutil
import statistics
import time
from pathlib import Path

from perfbench.common import PAIRS, Outcome, cpu_seconds, peak_rss_mb, rng_for

__all__ = ["GridWorkload", "run_cell"]

#: The searches of a round; each runs as an uncut and a cut cell.
SEARCHES = ("RS", "RSb", "RS", "RSb", "session")
NMAX = 300
SOURCE_NMAX = 100
#: The session cell: small enough to cost about what a search cell does.
SESSION_NMAX = 50
SESSION_POOL = 1000
SESSION_VARIANTS = ("RSp", "RSb", "RSpf", "RSbf")
RESUMES = 5  # fully cached re-invocations per round, each one timed
WORKERS = 2
ROUNDS = 400
EXPERIMENT = "perfbench-checkpointed-grid"

#: The tracer of a traced pass.  Forked workers inherit it and append
#: their spans next to the cell's checkpoint for the parent to merge.
_tracer = None


def run_session_cell(cell: dict) -> dict:
    """One checkpointed transfer session; a cut cell first runs only
    ``cell["cut"]`` target variants, then resumes the whole session."""
    import hashlib
    import json

    from repro.experiments.harness import build_session

    from perfbench.transfer_sessions import session_digests

    def session(variants):
        return build_session("HPL", cell["source"], cell["target"], seed=cell["seed"],
                             nmax=SESSION_NMAX, pool_size=SESSION_POOL,
                             variants=variants).run(checkpoint_path=cell["checkpoint"])

    if cell["cut"] is not None:
        session(SESSION_VARIANTS[:cell["cut"]])
    outcome = session(SESSION_VARIANTS)
    digests = json.dumps(session_digests(outcome), sort_keys=True)
    # The cut run's traces are loaded, not run again, so every trace of
    # the outcome was evaluated once in this cell.
    evals = outcome.source_trace.n_evaluations + sum(
        t.n_evaluations for t in outcome.traces.values()
    )
    return {"digest": hashlib.sha256(digests.encode()).hexdigest(), "evals": evals}


def run_cell(cell: dict) -> dict:
    """One cell of a round, resumed from its checkpoint when ``cell["cut"]``."""
    tracer, mark = _tracer, 0
    if tracer is not None:
        tracer.reset_thread()
        mark = len(tracer.spans)
    start = time.perf_counter()
    if cell["algorithm"] == "session":
        result = run_session_cell(cell)
    else:
        result = run_search_cell(cell)
    result.update(cell_s=time.perf_counter() - start, rss_mb=peak_rss_mb())
    if tracer is not None:
        spans = Path(cell["checkpoint"]).parent / f"spans-{os.getpid()}.jsonl"
        tracer.dump(str(spans), since=mark)
    return result


def run_search_cell(cell: dict) -> dict:
    """One RS or RSb search, cut by a smaller budget first when ``cell["cut"]``."""
    from repro.machines import get_machine
    from repro.miniapps import MiniappEvaluator, make_hpl
    from repro.perf.simclock import SimClock
    from repro.reliability import CheckpointManager
    from repro.search.biasing import biased_search
    from repro.search.random_search import random_search
    from repro.search.stream import SharedStream
    from repro.service.worker import trace_digest
    from repro.transfer.surrogate import Surrogate

    model = make_hpl()
    checkpoint = CheckpointManager(cell["checkpoint"])
    seed = ("perfbench", cell["seed"])
    evaluators = []

    def evaluator(machine: str):
        ev = MiniappEvaluator(model, get_machine(machine), clock=SimClock())
        evaluators.append(ev)
        return ev

    if cell["algorithm"] == "RSb":
        source = random_search(evaluator(cell["source"]), SharedStream(model.space, seed=seed),
                               nmax=SOURCE_NMAX)
        surrogate = Surrogate(model.space).fit(source.training_data())

        def search(nmax: int):
            return biased_search(evaluator(cell["target"]), model.space, surrogate,
                                 nmax=nmax, checkpoint=checkpoint)
    else:
        def search(nmax: int):
            return random_search(evaluator(cell["target"]), SharedStream(model.space, seed=seed),
                                 nmax=nmax, checkpoint=checkpoint)

    if cell["cut"] is not None:
        search(cell["cut"])
    trace = search(cell["nmax"])
    return {"digest": trace_digest(trace), "evals": sum(ev.n_evaluations for ev in evaluators)}


class GridWorkload:
    """Rounds of cut-and-resumed checkpointed searches on a journaled grid."""

    name = "checkpointed_grid"

    def setup(self, scratch: Path) -> None:
        self.scratch = scratch
        self.rounds = 0
        warm = scratch / "warm-up"
        warm.mkdir()
        for algorithm in sorted(set(SEARCHES)):
            run_cell({"algorithm": algorithm, "source": "westmere", "target": "sandybridge",
                      "seed": "warm-up", "nmax": 12, "cut": 2,
                      "checkpoint": str(warm / f"{algorithm}.ckpt")})
        shutil.rmtree(warm)

    def plan(self, seed: int, seconds: float) -> list[list[dict]]:
        rng = rng_for(self.name, seed)
        rounds = []
        for r in range(ROUNDS):
            cells = []
            for i, algorithm in enumerate(SEARCHES):
                source, target = rng.choice(PAIRS)
                search = {"algorithm": algorithm, "source": source,
                          "target": target, "seed": f"{seed}/{r}/{i}", "nmax": NMAX}
                cut = (rng.randrange(len(SESSION_VARIANTS)) if algorithm == "session"
                       else rng.randrange(1, NMAX))
                cells.append(dict(search, cut=None))
                cells.append(dict(search, cut=cut))
            rounds.append(cells)
        return rounds

    def execute(self, rounds, seconds=None, tracer=None):
        """Run rounds until ``seconds`` pass (all of ``rounds`` when None)."""
        global _tracer
        from repro.exec import run_grid

        out = Outcome()
        cell_s: list[float] = []
        resumes: list[float] = []
        start = time.perf_counter()
        done = 0
        _tracer = tracer
        try:
            for cells in rounds:
                if seconds is not None and time.perf_counter() - start >= seconds:
                    break
                done += 1
                rdir = self.scratch / f"round{self.rounds}"
                self.rounds += 1
                rdir.mkdir()
                specs = [dict(c, checkpoint=str(rdir / f"cell{i}.ckpt"))
                         for i, c in enumerate(cells)]
                grid = {"keys": cells, "registry": str(rdir / "registry.jsonl"),
                        "resume": True, "n_workers": WORKERS}
                # CPU seconds, the grid workers' included once they are
                # reaped: the host is shared, and wall time also counts the
                # time it gives to other processes.
                c0 = cpu_seconds()
                first = run_grid(EXPERIMENT, run_cell, specs, **grid)
                c1 = cpu_seconds()
                for _ in range(RESUMES):
                    r0 = time.process_time()  # runs in this process
                    again = run_grid(EXPERIMENT, run_cell, specs, **grid)
                    resumes.append(time.process_time() - r0)
                    self._check_resume(out, cells, first, again)
                self._check(out, cells, first, cell_s, c1 - c0)
                out.latencies.append((c1 - c0) / len(cells))
                if tracer is not None:
                    tracer.load(sorted(rdir.glob("spans-*.jsonl")))
                shutil.rmtree(rdir)
        finally:
            _tracer = None
        if cell_s:
            out.figures["cell_s_p50"] = statistics.median(cell_s)
            out.figures["resume_s_p50"] = statistics.median(resumes)
        return out, done

    @staticmethod
    def _check_resume(out: Outcome, cells, first, again) -> None:
        """A re-invocation merges every cell and executes none."""
        out.attempted += 1
        if again.executed or again.cached != len(cells):
            out.fail(f"re-invocation executed {again.executed} cell(s), "
                     f"merged {again.cached} of {len(cells)}")
        elif list(again.results) != list(first.results):
            out.fail("re-invocation results differ from the first invocation")

    @staticmethod
    def _check(out: Outcome, cells, first, cell_s: list[float], seconds: float) -> None:
        """No cell failed, and every resumed trace equals its uninterrupted twin."""
        from repro.exec import CellFailure

        out.attempted += len(cells)
        failed_before = out.failed
        for failure in first.failures:
            out.fail(f"cell {cells[failure.index]}: {failure.kind} "
                     f"{failure.error}: {failure.message}")
        for i in range(0, len(cells), 2):
            whole, resumed = first.results[i], first.results[i + 1]
            if isinstance(whole, CellFailure) or isinstance(resumed, CellFailure):
                continue
            if whole["digest"] != resumed["digest"]:
                out.fail(f"search {cells[i]['seed']}: resumed trace differs "
                         "from the uninterrupted one")
        results = [r for r in first.results if not isinstance(r, CellFailure)]
        out.peak_rss_mb = max([out.peak_rss_mb, peak_rss_mb()] + [r["rss_mb"] for r in results])
        cell_s.extend(r["cell_s"] for r in results)
        correct = len(cells) - (out.failed - failed_before)
        out.units.append((sum(r["evals"] for r in results), max(correct, 0), seconds))

    def prepare(self) -> None:
        pass  # every pass starts from files of its own

    def close(self) -> None:
        pass
