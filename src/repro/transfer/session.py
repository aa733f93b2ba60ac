"""The end-to-end transfer experiment (Section IV-D run setup).

For a kernel α, a source machine γa and a target machine γb:

1. run RS on γa and collect ``Ta`` (nmax evaluations);
2. fit the surrogate ``Ma`` on ``Ta``;
3. on γb, run — under common random numbers — RS, RSp, RSb, and the
   model-free controls RSpf and RSbf, each on a fresh simulated clock;
4. report performance and search-time speedups of every variant
   against RS.

Hyperparameters β kept fixed across machines: input size, compiler
type and flags, thread count (Section III's partitioned-β setup).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.machines.compiler import CompilerModel, GCC
from repro.machines.spec import MachineSpec
from repro.orio.evaluator import OrioEvaluator
from repro.perf.simclock import SimClock
from repro.search.biasing import biased_search, hybrid_search
from repro.search.model_free import model_free_biased_search, model_free_pruned_search
from repro.search.pruning import pruned_search
from repro.search.random_search import random_search
from repro.search.result import SearchTrace
from repro.search.stream import SharedStream
from repro.spec import TunerSpec, resolve_spec
from repro.transfer.metrics import SpeedupReport, speedups
from repro.transfer.surrogate import Surrogate
from repro.utils.stats import pearson, spearman
from repro.utils.tables import format_table

__all__ = ["TransferOutcome", "TransferSession"]


@dataclass
class TransferOutcome:
    """Everything a transfer experiment produced."""

    kernel: str
    source: str
    target: str
    source_trace: SearchTrace
    traces: dict[str, SearchTrace]  # target-machine traces by algorithm
    reports: dict[str, SpeedupReport] = field(default_factory=dict)

    @property
    def rs(self) -> SearchTrace:
        return self.traces["RS"]

    def report(self, variant: str) -> SpeedupReport:
        return self.reports[variant]

    def correlation(self) -> tuple[float, float]:
        """(Pearson, Spearman) between source and target runtimes of the
        commonly evaluated RS configurations — the paper's correlation
        panels.  Failed evaluations on either side are excluded (their
        penalty/censored runtimes are not measurements)."""
        source_by_cfg = {
            r.config.index: r.runtime for r in self.source_trace.successes()
        }
        xs, ys = [], []
        for r in self.rs.successes():
            if r.config.index in source_by_cfg:
                xs.append(source_by_cfg[r.config.index])
                ys.append(r.runtime)
        if len(xs) < 2:
            return float("nan"), float("nan")
        return pearson(xs, ys), spearman(xs, ys)

    def summary_table(self) -> str:
        """Human-readable speedup table (one Table IV block)."""
        rows = []
        for name, rep in self.reports.items():
            rows.append(
                [name, rep.performance, rep.search_time,
                 rep.best_variant_runtime, rep.successful]
            )
        return format_table(
            ["variant", "Prf.Imp", "Srh.Imp", "best (s)", "success"],
            rows,
            title=f"{self.kernel}: {self.source} -> {self.target}",
        )


class TransferSession:
    """Configure and run one transfer experiment.

    Parameters mirror Section IV-D: ``nmax=100`` evaluations, and the
    default ``spec``'s pool of ``N = 10000`` and cutoff ``δ = 20%``.
    ``seed`` controls the common-random-numbers stream;
    ``budget_seconds`` optionally bounds each search's simulated time
    (X-Gene style failures).

    Beyond the paper's four variants, ``variants`` also accepts
    ``"RSpb"`` — the prune-then-bias hybrid
    (:func:`~repro.search.biasing.hybrid_search`), which evaluates the
    biased pool ranking gated by the pruning cutoff ``∆``.

    ``spec`` (a :class:`repro.spec.TunerSpec`, default spec when
    ``None``) is the one place the session's tuner hyperparameters are
    set: the pool size, ``δ``, the surrogate forest, the engine block
    size, and the guard.  A ``spec.guard`` policy arms
    negative-transfer guardrails on the model-guided variants
    (RSp/RSb/RSpb): each run gets a fresh
    :class:`~repro.transfer.guard.ModelGuard` that scores the
    surrogate against target reality and degrades the search —
    ultimately to plain RS on the shared stream — when transfer turns
    out to hurt.  The default spec arms no guard and reproduces the
    historical traces byte-identically (golden-trace proven).
    """

    def __init__(
        self,
        kernel,
        source: MachineSpec,
        target: MachineSpec,
        compiler: CompilerModel = GCC,
        nmax: int = 100,
        threads: int | dict[str, int] = 1,
        openmp: bool = False,
        seed: object = 0,
        budget_seconds: float | None = None,
        variants: tuple[str, ...] = ("RSp", "RSb", "RSpf", "RSbf"),
        evaluator_factory: Callable[[MachineSpec, SimClock], object] | None = None,
        evaluator_wrapper: Callable[[object], object] | None = None,
        spec: TunerSpec | None = None,
    ) -> None:
        self.spec = resolve_spec(spec)
        self.kernel = kernel
        self.source = source
        self.target = target
        self.compiler = compiler
        self.nmax = nmax
        self.threads = threads
        self.openmp = openmp
        self.seed = seed
        self.budget_seconds = budget_seconds
        self.variants = variants
        self.evaluator_factory = evaluator_factory
        self.evaluator_wrapper = evaluator_wrapper

    # ------------------------------------------------------------------
    def _threads_for(self, machine: MachineSpec) -> int:
        """Per-machine thread counts (the paper uses 8/8/60 in Fig. 5)."""
        if isinstance(self.threads, dict):
            return int(self.threads.get(machine.name, 1))
        return int(self.threads)

    def _evaluator(self, machine: MachineSpec):
        clock = SimClock(self.budget_seconds)
        if self.evaluator_factory is not None:
            evaluator = self.evaluator_factory(machine, clock)
        else:
            evaluator = OrioEvaluator(
                self.kernel,
                machine,
                compiler=self.compiler,
                threads=self._threads_for(machine),
                openmp=self.openmp,
                clock=clock,
            )
        if self.evaluator_wrapper is not None:
            # Reliability layers (fault injection, retry/backoff, circuit
            # breaking) wrap here so every search sees the same hazards.
            evaluator = self.evaluator_wrapper(evaluator)
        return evaluator

    def _stream(self) -> SharedStream:
        return SharedStream(self.kernel.space, seed=self.seed)

    def collect_source_data(self) -> SearchTrace:
        """Step 1: RS on the source machine, producing Ta."""
        return random_search(
            self._evaluator(self.source), self._stream(), nmax=self.nmax,
            name="RS(source)", spec=self.spec,
        )

    def fit_surrogate(self, source_trace: SearchTrace) -> Surrogate:
        """Step 2: fit Ma on Ta (forest shaped by the session spec)."""
        surrogate = Surrogate(self.kernel.space, spec=self.spec.forest)
        return surrogate.fit(source_trace.training_data())

    def run(self, checkpoint_path=None) -> TransferOutcome:
        """Steps 1-4; returns the complete outcome.

        ``checkpoint_path`` optionally appends every finished search
        trace to a journal (see :mod:`repro.reliability.checkpoint`): if the
        session is interrupted — the paper's X-Gene outage scenario —
        re-running with the same path skips every completed phase
        instead of re-evaluating it.  Each search runs on a fresh clock
        and a seed-replayed stream, so the resumed session's remaining
        phases are bit-identical to an uninterrupted run.
        """
        done: dict[str, SearchTrace] = {}
        if checkpoint_path is not None:
            from repro.reliability.checkpoint import load_traces

            done = load_traces(checkpoint_path, self.kernel.space)

        def _save(name: str, trace: SearchTrace) -> None:
            if checkpoint_path is not None:
                from repro.reliability.checkpoint import save_traces

                save_traces(checkpoint_path, {name: trace})

        if "RS(source)" in done:
            source_trace = done["RS(source)"]
        else:
            source_trace = self.collect_source_data()
            _save("RS(source)", source_trace)
        surrogate = self.fit_surrogate(source_trace)
        training = source_trace.training_data()

        traces: dict[str, SearchTrace] = {}
        # Common random numbers: every stream-driven search replays the
        # same sequence (fresh SharedStream instances share the seed).
        guarded = self.spec.guard is not None
        runners: dict[str, Callable[[], SearchTrace]] = {
            "RS": lambda: random_search(
                self._evaluator(self.target), self._stream(), nmax=self.nmax,
                spec=self.spec,
            ),
            "RSp": lambda: pruned_search(
                self._evaluator(self.target), self._stream(), surrogate,
                nmax=self.nmax, spec=self.spec,
            ),
            "RSb": lambda: biased_search(
                self._evaluator(self.target), self.kernel.space, surrogate,
                nmax=self.nmax, stream=self._stream() if guarded else None,
                spec=self.spec,
            ),
            "RSpb": lambda: hybrid_search(
                self._evaluator(self.target), self.kernel.space, surrogate,
                nmax=self.nmax, stream=self._stream() if guarded else None,
                spec=self.spec,
            ),
            "RSpf": lambda: model_free_pruned_search(
                self._evaluator(self.target), training, nmax=self.nmax,
                spec=self.spec,
            ),
            "RSbf": lambda: model_free_biased_search(
                self._evaluator(self.target), training, nmax=self.nmax,
                spec=self.spec,
            ),
        }
        for name in ("RS",) + tuple(v for v in self.variants if v in runners):
            if name in done:
                traces[name] = done[name]
                continue
            traces[name] = runners[name]()
            _save(name, traces[name])

        outcome = TransferOutcome(
            kernel=self.kernel.name,
            source=self.source.name,
            target=self.target.name,
            source_trace=source_trace,
            traces=traces,
        )
        for name, trace in traces.items():
            if name != "RS":
                outcome.reports[name] = speedups(traces["RS"], trace)
        return outcome
