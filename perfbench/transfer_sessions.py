"""transfer_spapt and transfer_rt: whole transfer sessions.

Each operation is one ``build_session(..., nmax=100).run()``: RS on the
source machine, a surrogate fit, then RS/RSp/RSb/RSpf/RSbf on the
target, for one (problem, Table IV pair, session seed) entry of a fixed
catalog.  Sessions run in whole rounds of one session per problem, and
the timings are per round: the problems differ in cost by up to 2x, so
a statistic over single sessions would move with how many sessions of
which problem fit in a run.  ``build_session`` builds a fresh kernel,
so cache hits come only from the sharing inside one session.  Every
session's trace digests must equal the stored ones
(``digests_<workload>.json``, regenerated with ``--make-digests``).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from perfbench.common import PAIRS, Outcome, peak_rss_mb, rng_for

__all__ = ["PROBLEMS", "TransferWorkload", "catalog", "make_digests"]

PROBLEMS = {"transfer_spapt": ("LU", "MM", "ATAX", "COR"), "transfer_rt": ("RT",)}
NMAX = 100
#: Model pool per workload; ``None`` is the paper's 10,000.  An RT
#: session with the full pool takes about 15 s on a 2-CPU x86 host; a
#: 2,000 pool keeps several sessions in one run while pool sampling,
#: encoding and scoring still take most of the session.
POOL_SIZE = {"transfer_spapt": None, "transfer_rt": 2000}
SESSION_SEEDS = 3
#: Sessions after which the peak RSS is read.  The process RSS keeps
#: growing by a few MB per session, so a reading at the end of the run
#: would grow with the number of sessions, that is, with speed.
RSS_SESSIONS = 4
_HERE = Path(__file__).resolve().parent


def catalog(workload: str) -> list[tuple]:
    """Every (problem, source, target, session seed) the workload runs."""
    return [
        (problem, source, target, seed)
        for problem in PROBLEMS[workload]
        for source, target in PAIRS
        for seed in range(SESSION_SEEDS)
    ]


def entry_key(entry) -> str:
    return "/".join(str(part) for part in entry)


def digests_path(workload: str) -> Path:
    return _HERE / f"digests_{workload}.json"


def run_session(workload: str, entry):
    from repro.experiments.harness import build_session

    problem, source, target, seed = entry
    return build_session(problem, source, target, seed=seed, nmax=NMAX,
                         pool_size=POOL_SIZE[workload]).run()


def session_digests(outcome) -> dict[str, str]:
    """``trace_digest`` of the source trace and of every target variant."""
    from repro.service.worker import trace_digest

    digests = {"RS(source)": trace_digest(outcome.source_trace)}
    digests.update((name, trace_digest(t)) for name, t in outcome.traces.items())
    return digests


def make_digests(workload: str) -> None:
    """Run every catalog entry once and store its trace digests."""
    digests = {
        entry_key(e): session_digests(run_session(workload, e)) for e in catalog(workload)
    }
    digests_path(workload).write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


class TransferWorkload:
    """Back-to-back transfer sessions of one workload's catalog."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.digests: dict[str, dict[str, str]] = {}

    def setup(self, scratch: Path) -> None:
        from repro.experiments.harness import build_session

        # Parse every problem once and take each lazy path of a session.
        for problem in PROBLEMS[self.name]:
            build_session(problem, "westmere", "sandybridge", seed="warm-up",
                          nmax=4, pool_size=100).run()
        self.digests = json.loads(digests_path(self.name).read_text())

    def plan(self, seed: int, seconds: float) -> list[tuple]:
        """Rounds of one session per problem, each problem on another
        Table IV pair.  The (problem, pair) order is the same for every
        seed, so runs of equal length do the same mix of work; the seed
        draws each slot's session seed, and a slot takes a new session
        seed each cycle, so no entry repeats before the catalog ran."""
        rng = rng_for(self.name, seed)
        problems = PROBLEMS[self.name]
        base = {(p, pair): rng.randrange(SESSION_SEEDS) for p in problems for pair in PAIRS}
        ops: list[tuple] = []
        for cycle in range(4):
            for r in range(len(PAIRS)):
                for k, problem in enumerate(problems):
                    pair = PAIRS[(r + k) % len(PAIRS)]
                    session_seed = (base[(problem, pair)] + cycle) % SESSION_SEEDS
                    ops.append((problem, *pair, session_seed))
        return ops

    def execute(self, ops, seconds=None, tracer=None):
        """Run whole rounds while ``seconds`` have not passed (all of
        ``ops`` when None); the round under way when they pass ends."""
        out = Outcome()
        start = time.perf_counter()
        size = len(PROBLEMS[self.name])
        done = 0
        for r in range(0, len(ops), size):
            if seconds is not None and time.perf_counter() - start >= seconds:
                break
            evals = correct = 0
            elapsed = 0.0
            for entry in ops[r:r + size]:
                done += 1
                out.attempted += 1
                # A session is one thread doing no I/O, so its CPU time is
                # its wall time on an idle host; CPU time leaves out the
                # time a shared host gives to other processes.
                t0 = time.process_time()
                try:
                    outcome = run_session(self.name, entry)
                except Exception as exc:  # a failed session is counted, not fatal
                    out.fail(f"{entry_key(entry)}: {type(exc).__name__}: {exc}")
                    continue
                elapsed += time.process_time() - t0
                evals += outcome.source_trace.n_evaluations + sum(
                    t.n_evaluations for t in outcome.traces.values()
                )
                if session_digests(outcome) == self.digests.get(entry_key(entry)):
                    correct += 1
                else:
                    out.fail(f"{entry_key(entry)}: trace digests differ from the stored ones")
                if done == RSS_SESSIONS:
                    out.peak_rss_mb = peak_rss_mb()
            out.units.append((evals, correct, elapsed))
            out.latencies.append(elapsed / size)  # the round's mean session time
        return out, done

    def prepare(self) -> None:
        pass  # every pass starts from files of its own

    def close(self) -> None:
        pass
