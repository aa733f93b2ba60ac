"""Extension experiments beyond the paper's figures and tables.

* :func:`run_delta_sweep` — the paper attributes RSp's weakness to the
  conservative cutoff δ = 20%; sweep δ and measure the speedups.
* :func:`run_surrogate_ablation` — "the choice of the supervised-
  learning algorithm ... is crucial" (§III-A): swap the random forest
  for ridge / kNN / boosted trees and compare RSb.
* :func:`run_pool_sweep` — sensitivity of RSb to the pool size N.
* :func:`run_dissimilarity` — §VII future work: quantify machine
  dissimilarity.  Correlates the response-vector distance of every
  machine pair with the empirically measured rank correlation of
  configuration runtimes.
* :func:`run_multisource` — pool training data from several source
  machines before fitting the surrogate.
* :func:`run_warm_start` — §VII: "test the proposed approach with other
  sophisticated search algorithms": warm-start GA/annealing/bandit from
  the surrogate and compare against their cold runs and RSb.
* :func:`run_online` — refit the surrogate with target observations
  during the search (the ytopt/GPTune-style extension).
* :func:`run_fault_ablation` — robustness: inject evaluation faults at
  increasing rates and measure how RSb's speedups degrade with and
  without retry/backoff recovery (the paper's X-Gene failure, §V,
  generalized into an operational-hazard model).
* :func:`run_hybrid` — the prune-then-bias hybrid RSpb (the biased
  pool ranking gated by the pruning cutoff ∆, one
  :class:`~repro.search.engine.SearchEngine` composition) against its
  parents RSp and RSb across ∆ values, journaled through the supervised
  grid.
* :func:`run_negative_transfer` — robustness: feed RSp/RSb adversarial
  source data (runtime-inverted, label-shuffled, wrong-machine,
  stale-partial) with and without the
  :class:`~repro.transfer.guard.GuardPolicy` guardrails, and measure
  how much of plain RS's quality the guard's fallback preserves.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from repro.experiments.harness import build_session, grid_map, score_specs
from repro.kernels import get_kernel
from repro.machines import MACHINES, get_machine, response_distance
from repro.ml import (
    GradientBoostingRegressor,
    KNeighborsRegressor,
    RandomForestRegressor,
    RidgeRegressor,
)
from repro.orio.evaluator import OrioEvaluator
from repro.perf.simclock import SimClock
from repro.search.biasing import biased_search
from repro.search.pruning import pruned_search
from repro.search.random_search import random_search
from repro.search.stream import SharedStream
from repro.spec import DEFAULT_SPEC, PoolSpec, TunerSpec
from repro.transfer.guard import GuardPolicy
from repro.transfer.metrics import speedups
from repro.transfer.surrogate import Surrogate
from repro.utils.rng import spawn_rng
from repro.utils.stats import pearson, spearman
from repro.utils.tables import format_table

__all__ = [
    "AblationRow",
    "AblationResult",
    "run_delta_sweep",
    "run_surrogate_ablation",
    "run_pool_sweep",
    "run_dissimilarity",
    "DissimilarityResult",
    "run_multisource",
    "run_warm_start",
    "run_online",
    "run_search_comparison",
    "run_fault_ablation",
    "run_hybrid",
    "run_negative_transfer",
]


@dataclass(frozen=True)
class AblationRow:
    label: str
    performance: float
    search_time: float


@dataclass(frozen=True)
class AblationResult:
    name: str
    rows: tuple[AblationRow, ...]
    note: str = ""

    def best_row(self) -> AblationRow:
        return max(self.rows, key=lambda r: (r.performance, r.search_time))

    def render(self) -> str:
        table = format_table(
            ["setting", "Prf.Imp", "Srh.Imp"],
            [[r.label, r.performance, r.search_time] for r in self.rows],
            title=self.name,
        )
        return table + ("\n" + self.note if self.note else "")


def _rows(cells: list[dict], variant: str) -> tuple[AblationRow, ...]:
    """One row per sweep cell: its label and ``variant``'s speedups."""
    return tuple(
        AblationRow(c["candidate"], c["prf"][variant], c["srh"][variant])
        for c in cells
    )


def run_delta_sweep(
    deltas: Sequence[float] = (5.0, 10.0, 20.0, 40.0, 60.0),
    problem: str = "LU",
    source: str = "westmere",
    target: str = "sandybridge",
    seed: object = 0,
    nmax: int = 100,
) -> AblationResult:
    """RSp speedups as a function of the pruning cutoff δ."""
    cells = score_specs(
        "delta-sweep",
        [(f"delta={d:g}%", DEFAULT_SPEC.with_value("gate.delta_percent", d))
         for d in deltas],
        [problem], [(source, target)], [seed], nmax, variants=("RSp",),
    )
    return AblationResult(
        name=f"RSp delta sweep ({problem}, {source} -> {target})",
        rows=_rows(cells, "RSp"),
        note="paper's setting is delta=20%; smaller cutoffs prune harder",
    )


def run_surrogate_ablation(
    problem: str = "LU",
    source: str = "westmere",
    target: str = "sandybridge",
    seed: object = 0,
    nmax: int = 100,
) -> AblationResult:
    """RSb speedups under different surrogate learners."""
    kernel, training, _surrogate, rs = _source_surrogate_and_rs(
        problem, source, target, seed, nmax
    )
    learners = {
        "random-forest": RandomForestRegressor(n_estimators=64, seed=0),
        "boosted-trees": GradientBoostingRegressor(n_estimators=150, seed=0),
        "knn": KNeighborsRegressor(n_neighbors=5, weights="distance"),
        "ridge": RidgeRegressor(alpha=1.0),
    }
    rows = []
    for label, learner in learners.items():
        surrogate = Surrogate(kernel.space, learner=learner).fit(training)
        rsb = biased_search(
            OrioEvaluator(kernel, get_machine(target), clock=SimClock()),
            kernel.space, surrogate, nmax=nmax,
        )
        rep = speedups(rs, rsb)
        rows.append(AblationRow(label, rep.performance, rep.search_time))
    return AblationResult(
        name=f"surrogate-learner ablation ({problem}, {source} -> {target})",
        rows=tuple(rows),
        note="recursive partitioning (forest/boosting) should beat linear (ridge)",
    )


def run_pool_sweep(
    pool_sizes: Sequence[int] = (100, 1_000, 10_000, 50_000),
    problem: str = "LU",
    source: str = "westmere",
    target: str = "sandybridge",
    seed: object = 0,
    nmax: int = 100,
) -> AblationResult:
    """RSb speedups as a function of the prediction pool size N."""
    cells = score_specs(
        "pool-sweep",
        [(f"N={pool}", DEFAULT_SPEC.with_value("pool.size", pool))
         for pool in pool_sizes],
        [problem], [(source, target)], [seed], nmax, variants=("RSb",),
    )
    return AblationResult(
        name=f"RSb pool-size sweep ({problem}, {source} -> {target})",
        rows=_rows(cells, "RSb"),
        note="larger pools let the model exploit more of D (paper uses N=10000)",
    )


@dataclass(frozen=True)
class DissimilarityResult:
    pairs: tuple  # (machine_a, machine_b, response_distance, rho_s)
    correlation: float  # Pearson correlation of distance vs rho_s

    def render(self) -> str:
        table = format_table(
            ["machine a", "machine b", "response distance", "rho_s (LU)"],
            [[a, b, d, r] for a, b, d, r in self.pairs],
            title="machine dissimilarity vs. empirical rank correlation",
        )
        return table + (
            f"\ncorr(distance, rho_s) = {self.correlation:.2f} "
            "(expect strongly negative: dissimilar machines decorrelate)"
        )


def run_dissimilarity(
    n_configs: int = 120,
    kernel_name: str = "lu",
    seed: object = 0,
) -> DissimilarityResult:
    """Response-vector distance vs. measured cross-machine rank
    correlation — the quantification §VII calls for."""
    kernel = get_kernel(kernel_name)
    rng = spawn_rng("dissimilarity", str(seed))
    configs = kernel.space.sample(rng, n_configs)
    gcc_machines = [m for m in MACHINES.values()]
    runtimes = {}
    for machine in gcc_machines:
        evaluator = OrioEvaluator(kernel, machine)
        runtimes[machine.name] = np.array(
            [evaluator.measure(c).runtime_seconds for c in configs]
        )
    pairs = []
    for a, b in combinations(gcc_machines, 2):
        dist = response_distance(a.response, b.response)
        rho = spearman(runtimes[a.name], runtimes[b.name])
        pairs.append((a.name, b.name, dist, rho))
    dists = [p[2] for p in pairs]
    rhos = [p[3] for p in pairs]
    return DissimilarityResult(
        pairs=tuple(pairs), correlation=pearson(dists, rhos)
    )


def run_multisource(
    problem: str = "LU",
    sources: Sequence[str] = ("westmere", "power7"),
    target: str = "sandybridge",
    seed: object = 0,
    nmax: int = 100,
    pool_size: int = 10_000,
) -> AblationResult:
    """Fit the surrogate on pooled data from several source machines.

    Runtimes are normalized per source (divided by the source median)
    before pooling, so machines of different absolute speeds mix.
    """
    kernel = get_kernel(problem.lower())
    spec = DEFAULT_SPEC.with_value("pool.size", pool_size)
    rows = []

    def rsb_with_training(training, label: str) -> None:
        surrogate = Surrogate(kernel.space).fit(training)
        target_eval = OrioEvaluator(kernel, get_machine(target), clock=SimClock())
        rs_eval = OrioEvaluator(kernel, get_machine(target), clock=SimClock())
        stream = SharedStream(kernel.space, seed=(problem, str(seed)))
        rs = random_search(rs_eval, stream, nmax=nmax)
        rsb = biased_search(target_eval, kernel.space, surrogate, nmax=nmax,
                            spec=spec)
        rep = speedups(rs, rsb)
        rows.append(AblationRow(label, rep.performance, rep.search_time))

    pooled = []
    for source in sources:
        session = build_session(problem, source, target, seed=seed, nmax=nmax)
        trace = session.collect_source_data()
        data = trace.training_data()
        median = float(np.median([y for _, y in data]))
        normalized = [(c, y / median) for c, y in data]
        rsb_with_training(data, f"single source: {source}")
        pooled.extend(normalized)
    rsb_with_training(pooled, f"pooled sources: {'+'.join(sources)}")
    return AblationResult(
        name=f"multi-source transfer ({problem} -> {target})",
        rows=tuple(rows),
        note="pooled, median-normalized training data from several machines",
    )


def _source_surrogate_and_rs(problem: str, source: str, target: str,
                             seed: object, nmax: int):
    """Shared setup: Ta, fitted surrogate, and the target RS baseline."""
    kernel = get_kernel(problem.lower())
    src_eval = OrioEvaluator(kernel, get_machine(source), clock=SimClock())
    src_trace = random_search(
        src_eval, SharedStream(kernel.space, seed=(problem, str(seed))), nmax=nmax
    )
    training = src_trace.training_data()
    surrogate = Surrogate(kernel.space).fit(training)
    rs_eval = OrioEvaluator(kernel, get_machine(target), clock=SimClock())
    rs = random_search(
        rs_eval, SharedStream(kernel.space, seed=(problem, str(seed))), nmax=nmax
    )
    return kernel, training, surrogate, rs


def run_warm_start(
    problem: str = "LU",
    source: str = "westmere",
    target: str = "sandybridge",
    seed: object = 0,
    nmax: int = 100,
    pool_size: int = 10_000,
) -> AblationResult:
    """Warm-started GA / annealing / bandit vs. their cold runs and RSb."""
    from repro.search.warm_start import warm_started_search
    from repro.tuner import (
        AUCBanditMetaTechnique,
        GeneticAlgorithm,
        RandomTechnique,
        SimulatedAnnealing,
    )

    kernel, _training, surrogate, rs = _source_surrogate_and_rs(
        problem, source, target, seed, nmax
    )

    def technique_set():
        return {
            "ga": lambda: GeneticAlgorithm(population_size=12, seed=1),
            "anneal": lambda: SimulatedAnnealing(seed=1),
            "bandit": lambda: AUCBanditMetaTechnique(
                [RandomTechnique(seed=1), GeneticAlgorithm(population_size=10, seed=2),
                 SimulatedAnnealing(seed=3)]
            ),
        }

    spec = DEFAULT_SPEC.with_value("pool.size", pool_size)
    rows = []
    for label, factory in technique_set().items():
        for warm in (False, True):
            trace = warm_started_search(
                OrioEvaluator(kernel, get_machine(target), clock=SimClock()),
                kernel.space,
                factory(),
                surrogate=surrogate if warm else None,
                nmax=nmax,
                seed_evaluations=max(5, nmax // 10) if warm else 0,
                spec=spec,
            )
            rep = speedups(rs, trace)
            rows.append(
                AblationRow(
                    f"{label} ({'warm' if warm else 'cold'})",
                    rep.performance,
                    rep.search_time,
                )
            )
    return AblationResult(
        name=f"warm-started techniques ({problem}, {source} -> {target})",
        rows=tuple(rows),
        note="warm = surrogate-seeded initial evaluations; speedups vs the RS baseline",
    )


def run_online(
    problem: str = "LU",
    source: str = "westmere",
    target: str = "sandybridge",
    seed: object = 0,
    nmax: int = 100,
    pool_size: int = 10_000,
    refit_every: int = 20,
) -> AblationResult:
    """Frozen RSb vs. online (target-refitted) RSb."""
    from repro.transfer.online import online_biased_search

    kernel, training, surrogate, rs = _source_surrogate_and_rs(
        problem, source, target, seed, nmax
    )
    spec = DEFAULT_SPEC.with_value("pool.size", pool_size)
    rows = []
    frozen = biased_search(
        OrioEvaluator(kernel, get_machine(target), clock=SimClock()),
        kernel.space, surrogate, nmax=nmax, spec=spec,
    )
    rep = speedups(rs, frozen)
    rows.append(AblationRow("RSb (frozen model)", rep.performance, rep.search_time))
    online = online_biased_search(
        OrioEvaluator(kernel, get_machine(target), clock=SimClock()),
        kernel.space, training, nmax=nmax, refit_every=refit_every,
        spec=spec,
    )
    rep = speedups(rs, online)
    rows.append(
        AblationRow(f"RSb+online (refit every {refit_every})",
                    rep.performance, rep.search_time)
    )
    return AblationResult(
        name=f"online surrogate refinement ({problem}, {source} -> {target})",
        rows=tuple(rows),
        note="online refits blend rescaled source data with target observations",
    )


def run_fault_ablation(
    rates: Sequence[float] = (0.0, 0.05, 0.10, 0.20),
    problem: str = "LU",
    source: str = "westmere",
    target: str = "sandybridge",
    seed: object = 0,
    nmax: int = 100,
    pool_size: int = 10_000,
) -> AblationResult:
    """RSb speedups under injected faults, with and without retries.

    The target evaluator is wrapped in a
    :class:`~repro.reliability.faults.FaultyEvaluator` (transient
    glitches, compile crashes, timeouts, outages in the
    :meth:`~repro.reliability.faults.FaultSpec.uniform` mixture) and a
    :class:`~repro.reliability.resilient.ResilientEvaluator` that either
    retries with exponential backoff or fails fast.  Speedups are
    measured against the *fault-free* RS baseline under common random
    numbers, so the table shows exactly how much performance and
    search-time advantage unreliability erodes — and how much of it the
    retry policy buys back.
    """
    from repro.reliability import (
        FaultSpec,
        FaultyEvaluator,
        ResilientEvaluator,
        RetryPolicy,
    )

    kernel, _training, surrogate, rs = _source_surrogate_and_rs(
        problem, source, target, seed, nmax
    )
    rows = []
    failure_lines = []
    for rate in rates:
        for retries in (False, True):
            evaluator = ResilientEvaluator(
                FaultyEvaluator(
                    OrioEvaluator(kernel, get_machine(target), clock=SimClock()),
                    FaultSpec.uniform(rate, seed=("faults", str(seed))),
                ),
                retry=RetryPolicy() if retries else RetryPolicy.none(),
            )
            trace = biased_search(
                evaluator, kernel.space, surrogate, nmax=nmax,
                spec=DEFAULT_SPEC.with_value("pool.size", pool_size),
            )
            rep = speedups(rs, trace)
            label = f"rate={rate:.0%} ({'retries' if retries else 'fail-fast'})"
            rows.append(AblationRow(label, rep.performance, rep.search_time))
            stats = evaluator.stats
            failure_lines.append(
                f"  {label}: {trace.n_failures}/{trace.n_evaluations} failed, "
                f"{stats.retries} retries, {stats.censored} censored"
            )
    note = (
        "speedups vs the fault-free RS baseline (CRN); retries recover\n"
        "transient glitches at a backoff cost charged to the clock\n"
        + "\n".join(failure_lines)
    )
    return AblationResult(
        name=f"fault-rate ablation ({problem}, {source} -> {target}, RSb)",
        rows=tuple(rows),
        note=note,
    )


def run_hybrid(
    deltas: Sequence[float] = (10.0, 20.0, 40.0),
    problem: str = "LU",
    source: str = "westmere",
    target: str = "sandybridge",
    seed: object = 0,
    nmax: int = 100,
    n_workers: int = 1,
    registry_path=None,
) -> AblationResult:
    """The prune-then-bias hybrid RSpb against its parents RSp and RSb.

    RSpb evaluates the surrogate's pool ranking best-first (biasing)
    but skips any candidate predicted slower than the ∆-quantile
    cutoff (pruning) — a new Proposer x Gate composition the shared
    engine makes a three-line factory.  Each ∆ cell runs all three
    variants under common random numbers; with ``registry_path`` every
    cell is journaled by the supervised grid and a re-invocation
    resumes instead of re-running.
    """
    variants = ("RSp", "RSb", "RSpb")
    deltas = [float(d) for d in deltas]
    cells = score_specs(
        "hybrid",
        [(f"delta={d:g}% nmax={nmax}",
          DEFAULT_SPEC.with_value("gate.delta_percent", d)) for d in deltas],
        [problem], [(source, target)], [seed], nmax, variants=variants,
        registry_path=registry_path, n_workers=n_workers,
    )
    rows = tuple(
        AblationRow(f"{v} (delta={d:g}%)", cell["prf"][v], cell["srh"][v])
        for d, cell in zip(deltas, cells)
        for v in variants
    )
    return AblationResult(
        name=f"prune-then-bias hybrid ({problem}, {source} -> {target})",
        rows=rows,
        note="RSpb = biased pool order gated by the pruning cutoff delta (CRN)",
    )


def _corrupt_training(mode: str, training: list, seed: object) -> list:
    """Apply one adversarial corruption to the source data ``Ta``."""
    if mode in ("faithful", "wrong-machine"):
        # wrong-machine corrupts by *collection* (dissimilar source),
        # not by mangling the rows.
        return training
    if mode == "inverted":
        runtimes = [y for _, y in training]
        lo, hi = min(runtimes), max(runtimes)
        return [(c, lo + hi - y) for c, y in training]
    if mode == "shuffled":
        rng = spawn_rng("negative-transfer", str(seed))
        order = rng.permutation(len(training))
        return [(c, training[int(j)][1]) for (c, _), j in zip(training, order)]
    if mode == "stale-partial":
        return training[: max(8, len(training) // 5)]
    raise ValueError(f"unknown corruption mode {mode!r}")


def _negative_transfer_cell(spec: tuple) -> tuple:
    """One guard-ablation cell — module level so it can run in a worker.

    Runs RS (the CRN baseline) plus RSp and RSb on the target, fitting
    the surrogate on one corrupted source dataset, with or without the
    guardrails.  Returns per-variant ``(variant, performance,
    search_time, guard_state, interventions)`` tuples.
    """
    (problem, source, wrong_source, target, seed,
     nmax, pool_size, mode, guarded) = spec
    kernel = get_kernel(problem.lower())
    stream_seed = (problem, str(seed))

    def stream() -> SharedStream:
        return SharedStream(kernel.space, seed=stream_seed)

    def evaluator(machine: str) -> OrioEvaluator:
        return OrioEvaluator(kernel, get_machine(machine), clock=SimClock())

    src_machine = wrong_source if mode == "wrong-machine" else source
    src_trace = random_search(
        evaluator(src_machine), stream(), nmax=nmax, name="RS(source)"
    )
    training = _corrupt_training(mode, src_trace.training_data(), seed)
    surrogate = Surrogate(kernel.space).fit(training)
    rs = random_search(evaluator(target), stream(), nmax=nmax)

    spec = TunerSpec(
        pool=PoolSpec(size=pool_size), guard=GuardPolicy() if guarded else None
    )
    out = []
    for variant in ("RSp", "RSb"):
        if variant == "RSp":
            trace = pruned_search(
                evaluator(target), stream(), surrogate, nmax=nmax, spec=spec,
            )
        else:
            trace = biased_search(
                evaluator(target), kernel.space, surrogate, nmax=nmax,
                stream=stream() if guarded else None, spec=spec,
            )
        rep = speedups(rs, trace)
        meta = trace.metadata.get("guard")
        state = meta["state"] if meta else "trusted"
        interventions = (
            meta["audits"] + meta["widened_admits"] + meta["fallback_proposals"]
            if meta else 0
        )
        out.append((variant, rep.performance, rep.search_time, state, interventions))
    return tuple(out)


def run_negative_transfer(
    modes: Sequence[str] = (
        "faithful", "inverted", "shuffled", "wrong-machine", "stale-partial",
    ),
    problem: str = "LU",
    source: str = "westmere",
    target: str = "sandybridge",
    wrong_source: str = "xgene",
    seed: object = 0,
    nmax: int = 100,
    pool_size: int = 10_000,
    n_workers: int = 1,
    registry_path=None,
) -> AblationResult:
    """Adversarial sources × guard on/off — the negative-transfer study.

    The paper shows transfer *failing* (Prf < 1.0 cells, the X-Gene
    rows); this ablation manufactures such failures on purpose —
    runtime-inverted labels, label shuffling, a maximally dissimilar
    source machine, a stale truncated ``Ta`` — and measures what the
    :class:`~repro.transfer.guard.GuardPolicy` guardrails salvage.  A
    healthy guard leaves the faithful rows untouched (it stays TRUSTED;
    the guarded trace is identical to the unguarded one) while on a
    hostile source it revokes the model and recovers plain RS's quality
    on the shared stream.  With ``registry_path`` every cell is
    journaled by the supervised grid (``REPRO_RESUME`` applies).
    """
    specs = [
        (problem, source, wrong_source, target, seed,
         nmax, pool_size, mode, guarded)
        for mode in modes
        for guarded in (False, True)
    ]
    keys = [
        (problem, source, wrong_source, target, str(seed),
         nmax, pool_size, mode, guarded)
        for (_p, _s, _w, _t, _sd, nmax, pool_size, mode, guarded) in specs
    ]
    cells = grid_map(
        "negative-transfer", _negative_transfer_cell, specs,
        keys=keys, n_workers=n_workers, registry_path=registry_path,
    )
    rows = []
    guard_lines = []
    for spec, cell in zip(specs, cells):
        mode, guarded = spec[-2], spec[-1]
        for variant, performance, search_time, state, interventions in cell:
            label = f"{mode}/{variant} ({'guard' if guarded else 'bare'})"
            rows.append(AblationRow(label, performance, search_time))
            if guarded:
                guard_lines.append(
                    f"  {label}: state={state}, interventions={interventions}"
                )
    note = (
        "Prf.Imp vs plain RS under CRN (>= 1.0: transfer helps; the guard\n"
        "must keep hostile-source rows near 1.0 and leave faithful rows\n"
        "untouched)\n" + "\n".join(guard_lines)
    )
    return AblationResult(
        name=f"negative-transfer guardrails ({problem}, {source} -> {target})",
        rows=tuple(rows),
        note=note,
    )


def run_search_comparison(
    problem: str = "LU",
    source: str = "westmere",
    target: str = "sandybridge",
    seed: object = 0,
    nmax: int = 100,
    pool_size: int = 10_000,
) -> AblationResult:
    """Every search family of Section II on one problem, cold vs transfer.

    Random search, Nelder-Mead, orthogonal search, pattern search, PSO,
    GA, annealing, the AUC bandit, RSb, and model-based search (SMBO) —
    plus the transfer-assisted versions where applicable.  Speedups are
    against the RS baseline under common random numbers.
    """
    from repro.search.warm_start import warm_started_search
    from repro.transfer.smbo import smbo_search
    from repro.tuner import (
        GeneticAlgorithm,
        NelderMead,
        OrthogonalSearch,
        ParticleSwarm,
        PatternSearch,
        SimulatedAnnealing,
    )

    kernel, training, surrogate, rs = _source_surrogate_and_rs(
        problem, source, target, seed, nmax
    )

    def fresh_eval():
        return OrioEvaluator(kernel, get_machine(target), clock=SimClock())

    rows = []
    pool_spec = DEFAULT_SPEC.with_value("pool.size", pool_size)
    smbo_spec = (
        DEFAULT_SPEC.with_value("smbo.n_initial", max(5, nmax // 10))
        .with_value("smbo.pool_size", min(pool_size, 2000))
    )

    def add(trace, label):
        rep = speedups(rs, trace)
        rows.append(AblationRow(label, rep.performance, rep.search_time))

    techniques = {
        "nelder-mead": lambda: NelderMead(seed=1),
        "orthogonal": lambda: OrthogonalSearch(seed=1),
        "pattern": lambda: PatternSearch(seed=1),
        "pso": lambda: ParticleSwarm(seed=1),
        "ga": lambda: GeneticAlgorithm(population_size=12, seed=1),
        "anneal": lambda: SimulatedAnnealing(seed=1),
    }
    for label, factory in techniques.items():
        add(
            warm_started_search(fresh_eval(), kernel.space, factory(),
                                surrogate=None, nmax=nmax, seed_evaluations=0),
            f"{label} (cold)",
        )
        add(
            warm_started_search(fresh_eval(), kernel.space, factory(),
                                surrogate=surrogate, nmax=nmax,
                                seed_evaluations=max(5, nmax // 10),
                                spec=pool_spec),
            f"{label} (transfer)",
        )
    add(
        biased_search(fresh_eval(), kernel.space, surrogate, nmax=nmax,
                      spec=pool_spec),
        "RSb (transfer)",
    )
    add(
        smbo_search(fresh_eval(), kernel.space, nmax=nmax, seed=seed,
                    spec=smbo_spec),
        "smbo (cold)",
    )
    add(
        smbo_search(fresh_eval(), kernel.space, nmax=nmax,
                    source_surrogate=surrogate, source_data=training, seed=seed,
                    spec=smbo_spec),
        "smbo (transfer)",
    )
    return AblationResult(
        name=f"search-family comparison ({problem}, {source} -> {target})",
        rows=tuple(rows),
        note="every Section-II search family, cold vs transfer-assisted",
    )
