"""The canonical cross-layer workload the chaos oracle judges.

One :func:`run_workload` call drives all three durable subsystems
through one :class:`~repro.chaos.plan.ChaosPlan`:

* **search phase** — a faulted, resilient, checkpointed random search
  (evaluator-fault layer), killed after every ``kill_every_saves``
  checkpoint saves and resumed, like the golden kill-mid-save suites;
* **grid phase** — a :func:`~repro.exec.run_grid` over pure cells on a
  chaos-configured :class:`~repro.exec.SupervisedExecutor` (worker
  kill/hang layer + deadline pressure), with budgeted filesystem faults
  against the registry journal and a crash/re-invoke loop on journal
  write failures;
* **service phase** — a :class:`~repro.service.TuningService` with two
  tenants whose jobs run under worker chaos, store-journal faults
  (degraded mode), and abandon-and-reopen crash cycles (journal-first
  recovery).

The silent-corruption layer rides on top of all three: search
checkpoints are bit-rotted between kill/resume cycles (salvage
quarantines the damaged line and every later one, and the search
resumes from the last clean save), the grid registry and
the session store rot under budgeted
:data:`~repro.chaos.faultfs.CORRUPT_MODES` rules while the journals
are in active use (including flip-during-compaction), and a post-chaos
salvage/recovery pass re-executes exactly the lost cells.  Damage is
counted per record line, which is what the oracle's bounded-loss
invariant checks against.

The function returns a JSON-safe outcome dict.  Run once with
``chaos=False`` it produces the fault-free reference (which shares the
*evaluator*-fault schedule — that layer is simulation input, so the
reference measures the same faulted objective and only operational
chaos differs); run with ``chaos=True`` it produces the outcome the
:mod:`~repro.chaos.oracle` compares against the reference.

``break_invariant`` deliberately sabotages recovery so the negative
tests can prove the oracle actually discriminates:

* ``"skip-replay"`` — the final service state is read without replaying
  the journal (the store looks empty);
* ``"no-resume"`` — the grid's final verification pass runs with
  ``resume=False`` (every cell re-executes);
* ``"skip-salvage-recovery"`` — the grid registry is deliberately
  bit-flipped after the chaos window and the salvage/recovery pass is
  skipped, so the final verification pass is the first reader to
  discover the damage and must re-execute a cell;
* ``"resume-from-zero"`` — a search resume that finds checkpoint
  damage salvages it, then discards the clean prefix and restarts
  the search from position 0.
"""

from __future__ import annotations

import hashlib
import multiprocessing as mp
import os
import time

from repro.chaos.faultfs import FaultFS, corrupt_file
from repro.chaos.plan import ChaosPlan
from repro.errors import JournalWriteError
from repro.exec.executor import SupervisedExecutor, run_grid
from repro.exec.registry import RunRegistry
from repro.reliability import (
    CheckpointManager,
    FaultyEvaluator,
    ResilientEvaluator,
    RetryPolicy,
)
from repro.service.errors import ServiceOverloadedError
from repro.service.model import JOB_QUEUED, JOB_RUNNING, TenantQuota
from repro.service.service import TuningService
from repro.service.store import SessionStore
from repro.utils.rng import stable_hash

__all__ = ["run_workload", "BREAK_INVARIANT_MODES"]

#: Recognized sabotage modes for the oracle's negative tests.
BREAK_INVARIANT_MODES: tuple[str, ...] = (
    "skip-replay", "no-resume", "skip-salvage-recovery", "resume-from-zero",
)

_SEARCH_NMAX = 14
_CHECKPOINT_EVERY = 3
_GRID_CELLS = 8
_TENANTS = ("acme", "beta")
_JOBS_PER_TENANT = 3
_SERVICE_DEADLINE = 60.0  # wall-clock bound on the service phase


class _ChaosKill(RuntimeError):
    """The simulated crash a killing checkpoint manager raises."""


class _KillingManager(CheckpointManager):
    """A manager that dies right after every Nth successful save.

    The save *completes* before the kill — exactly a SIGKILL landing
    between the checkpoint fsync and the next instruction — so a resume
    must pick up from the snapshot that was just written.  Each load
    adds the records the journal lost since the last save (held by
    lines salvage quarantined or the damage cut off) to
    ``lost_records``.
    """

    def __init__(self, path, every: int, kill_every_saves: int,
                 max_kills: int, resume_from_zero: bool = False) -> None:
        super().__init__(path, every=every)
        self.kill_every_saves = kill_every_saves
        self.kills_left = max_kills
        self.resume_from_zero = resume_from_zero
        self.lost_records = 0
        self._saved_records = 0
        self._saves_since_kill = 0

    def load(self):
        snapshot = super().load()
        kept = 0 if snapshot is None else len(snapshot.trace["records"])
        lost = self._saved_records - kept
        self.lost_records += lost
        self._saved_records = kept
        if lost and self.resume_from_zero:
            self.clear()
            self._saved_records = 0
            return None
        return snapshot

    def save(self, trace, position, evaluator=None, extra=None) -> None:
        super().save(trace, position, evaluator=evaluator, extra=extra)
        self._saved_records = len(trace.records)
        self._saves_since_kill += 1
        if self.kills_left > 0 and self._saves_since_kill >= self.kill_every_saves:
            self.kills_left -= 1
            self._saves_since_kill = 0
            raise _ChaosKill(f"chaos kill after save at position {position}")


class _CountingEvaluator:
    """Counts the evaluations a search asks for; delegates the rest."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.calls = 0

    def __getattr__(self, name: str):
        return getattr(self.inner, name)

    def evaluate(self, config):
        self.calls += 1
        return self.inner.evaluate(config)


def _file_sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ----------------------------------------------------------------------
# Phase A: checkpointed search under kill/resume chaos
# ----------------------------------------------------------------------
def _build_search(plan: ChaosPlan):
    """Fresh evaluator + stream for one (re)start — pure in the plan."""
    from repro.kernels import get_kernel
    from repro.machines import SANDYBRIDGE
    from repro.orio.evaluator import OrioEvaluator
    from repro.perf.simclock import SimClock
    from repro.search.stream import SharedStream

    kernel = get_kernel("lu", n=64)
    faulty = FaultyEvaluator(
        OrioEvaluator(kernel, SANDYBRIDGE, clock=SimClock()),
        plan.fault_spec(),
    )
    evaluator = _CountingEvaluator(
        ResilientEvaluator(faulty, retry=RetryPolicy(max_retries=1))
    )
    stream = SharedStream(kernel.space, seed=("chaos-search", plan.seed))
    return evaluator, faulty, stream


def _run_search_phase(plan: ChaosPlan, root: str, chaos: bool,
                      break_invariant: str | None) -> dict:
    from repro.search.random_search import random_search

    ckpt_path = os.path.join(root, "search.ckpt.json")
    resumes = 0
    ckpt_corruptions = 0
    evaluator_calls = 0
    if chaos:
        manager: CheckpointManager = _KillingManager(
            ckpt_path,
            every=_CHECKPOINT_EVERY,
            kill_every_saves=plan.kill_every_saves,
            max_kills=plan.restarts + 1,
            resume_from_zero=break_invariant == "resume-from-zero",
        )
    else:
        manager = CheckpointManager(ckpt_path, every=_CHECKPOINT_EVERY)
    while True:
        evaluator, faulty, stream = _build_search(plan)
        try:
            trace = random_search(
                evaluator, stream, nmax=_SEARCH_NMAX,
                name="RS(chaos)", checkpoint=manager,
            )
            break
        except _ChaosKill:
            resumes += 1
            # Bit-rot the live checkpoint while the process is "down".
            # The resume salvages the clean prefix and replays the lost
            # saves deterministically, so it still converges.
            if ckpt_corruptions < plan.corrupt_budget:
                damaged = corrupt_file(
                    ckpt_path, plan.ckpt_corrupt_mode,
                    seed=f"{plan.seed}-ckpt", index=ckpt_corruptions,
                    protect_final_line=False,
                )
                if damaged:
                    ckpt_corruptions += 1
        finally:
            evaluator_calls += evaluator.calls
    return {
        "trace_digest": trace.state_digest(),
        "n_records": trace.n_evaluations,
        "checkpoint_sha": _file_sha256(ckpt_path),
        "resumes": resumes,
        "ckpt_corruptions": ckpt_corruptions,
        "ckpt_lost_records": getattr(manager, "lost_records", 0),
        "evaluator_calls": evaluator_calls,
        "evaluator_faults": dict(faulty.injector.counts),
    }


# ----------------------------------------------------------------------
# Phase B: journaled grid under worker + filesystem chaos
# ----------------------------------------------------------------------
def _grid_cell(spec: dict) -> dict:
    """A pure, picklable cell: deterministic hash mixing."""
    acc = 0
    for i in range(int(spec["work"])):
        acc = stable_hash("chaos-grid-cell", spec["seed"], acc, i) % (1 << 53)
    return {"seed": spec["seed"], "value": acc}


def _grid_specs(plan: ChaosPlan) -> list[dict]:
    return [
        {"seed": f"{plan.seed}-cell{i}", "work": 32 + 8 * i}
        for i in range(_GRID_CELLS)
    ]


def _run_grid_phase(plan: ChaosPlan, root: str, chaos: bool,
                    break_invariant: str | None) -> dict:
    registry_path = os.path.join(root, "grid.jsonl")
    specs = _grid_specs(plan)
    restarts = 0
    fs_faults = 0
    damage_records = 0
    salvage_executed = 0
    salvaged = 0
    if chaos:
        executor = SupervisedExecutor(
            n_workers=2,
            task_timeout=plan.task_timeout,
            heartbeat_interval=0.05,
            max_task_retries=12,
            retry_backoff_seconds=0.01,
            poll_interval=0.02,
            chaos=plan.chaos_config(),
        )
        fs = FaultFS()
        fs.add_rule(registry_path, **plan.fs_rule_kwargs())
        # Silent corruption: latent rot surfaces on write-mode opens of
        # the journal; optionally the freshly compacted snapshot rots
        # too (flip-during-compaction).
        fs.add_rule(registry_path, **plan.corrupt_rule_kwargs("registry"))
        if plan.corrupt_compaction:
            fs.add_rule(
                registry_path,
                **plan.corrupt_rule_kwargs("registry", on_replace=True),
            )
        with fs:
            # Crash/re-invoke loop: a journal write failure aborts the
            # grid exactly like a crash would; the re-invocation resumes
            # from the journal.  The fault budget guarantees progress.
            for _ in range(plan.fs_budget + 4):
                try:
                    run_grid(
                        "chaos-grid", _grid_cell, specs,
                        registry=registry_path, executor=executor,
                    )
                    break
                except JournalWriteError:
                    restarts += 1
            else:
                raise RuntimeError(
                    "grid phase did not complete within the fault budget"
                )
            # The rename mode only fires on compaction — exercise it
            # (and the stale-tmp discard) explicitly.
            registry = RunRegistry(registry_path)
            for _ in range(plan.fs_budget + 1):
                try:
                    registry.compact()
                    break
                except JournalWriteError:
                    restarts += 1
        fs_faults = fs.failures
        damage_records = fs.damage_records
        chaos_kills = executor.stats().chaos_kills
        if break_invariant == "skip-salvage-recovery":
            # Sabotage: rot the registry *after* the chaos window and
            # skip the recovery pass, so the verification pass below is
            # the first reader to hit the damage and must re-execute —
            # which the zero-reexecuted-cells invariant flags.
            damage_records += corrupt_file(
                registry_path, "bitflip", seed=f"{plan.seed}-sabotage"
            )
        else:
            # Salvage/recovery pass: quarantine whatever rot the chaos
            # window left behind and re-execute exactly the lost cells,
            # so the verification pass observes a healed journal.
            recovery = run_grid(
                "chaos-grid", _grid_cell, specs, registry=registry_path,
                n_workers=1,
            )
            salvage_executed = recovery.executed
            salvaged = recovery.salvaged
    else:
        run_grid("chaos-grid", _grid_cell, specs, registry=registry_path,
                 n_workers=1)
        RunRegistry(registry_path).compact()
        chaos_kills = 0

    # Final verification pass: with an intact journal this executes
    # nothing and merges everything from cache.
    verify = run_grid(
        "chaos-grid", _grid_cell, specs, registry=registry_path,
        n_workers=1,
        resume=False if break_invariant == "no-resume" else None,
    )
    state = RunRegistry(registry_path).load()
    results = {
        fp: state.record_for(fp).result() for fp in verify.fingerprints
    }
    return {
        "results": results,
        "final_cached": verify.cached,
        "final_executed": verify.executed,
        "n_cells": len(specs),
        "restarts": restarts,
        "fs_faults": fs_faults,
        "damage_records": damage_records,
        "salvage_executed": salvage_executed,
        "salvaged": salvaged,
        "chaos_kills": chaos_kills,
    }


# ----------------------------------------------------------------------
# Phase C: multi-tenant service under crash/restart + journal chaos
# ----------------------------------------------------------------------
def _make_service(root: str, plan: ChaosPlan, chaos: bool) -> TuningService:
    executor = SupervisedExecutor(
        n_workers=2 if chaos else 1,
        task_timeout=plan.task_timeout if chaos else None,
        heartbeat_interval=0.05,
        max_task_retries=12,
        retry_backoff_seconds=0.01,
        poll_interval=0.02,
        chaos=plan.chaos_config() if chaos else None,
    )
    return TuningService(
        root,
        quotas={t: TenantQuota(max_live_sessions=2, max_queued_jobs=16)
                for t in _TENANTS},
        batch_size=2,
        executor=executor,
        store_max_bytes=1500,
        degraded_cooldown=0.05,
    )


def _seed_service_jobs(svc: TuningService, plan: ChaosPlan) -> list[str]:
    """Create every session and job *before* chaos starts.

    Session/job ids derive from the store's sequence counter, so all
    id-allocating transitions must happen while the journal is healthy —
    otherwise chaos-induced extra events would shift ids between the
    chaos run and the reference and the comparison would be vacuous.
    """
    job_ids = []
    for tenant in _TENANTS:
        session = svc.create_session(tenant)
        for i in range(_JOBS_PER_TENANT):
            job = svc.submit(
                session.session_id,
                {"kind": "probe", "seed": f"{plan.seed}-{tenant}-{i}",
                 "work": 48},
            )
            job_ids.append(job.job_id)
    return job_ids


def _reopen_service(service_root: str, plan: ChaosPlan, chaos: bool,
                    deadline: float) -> TuningService:
    """Recover into a fresh instance, retrying while the disk misbehaves.

    :meth:`TuningService.open` journals requeue transitions during
    reconciliation, so recovery itself can hit an armed filesystem
    fault — the service-won't-start-on-a-full-disk case.  Every failed
    attempt burns fault budget, so retrying converges.
    """
    while True:
        svc = _make_service(service_root, plan, chaos)
        try:
            return svc.open()
        except ServiceOverloadedError:
            svc.stop()
            if time.monotonic() > deadline:
                raise
            time.sleep(0.02)


def _drain_service(svc: TuningService, deadline: float) -> None:
    """Pump until no job is queued/running (sleeping out degraded windows)."""
    while time.monotonic() < deadline:
        pending = any(
            j.state in (JOB_QUEUED, JOB_RUNNING)
            for j in svc.store.jobs.values()
        )
        if not pending:
            return
        if svc.pump() == 0:
            time.sleep(0.02)
    raise TimeoutError("service phase did not drain before its deadline")


def _service_state_digest(store: SessionStore) -> dict:
    """Timestamp-free normalization of the durable session/job state."""
    return {
        "sessions": sorted(
            (s.session_id, s.tenant, s.state)
            for s in store.sessions.values()
        ),
        "jobs": sorted(
            (j.job_id, j.session_id, j.tenant, j.state, j.cost, j.priority,
             tuple(sorted((j.result or {}).items())))
            for j in store.jobs.values()
        ),
    }


def _run_service_phase(plan: ChaosPlan, root: str, chaos: bool,
                       break_invariant: str | None) -> dict:
    service_root = os.path.join(root, "service")
    deadline = time.monotonic() + _SERVICE_DEADLINE
    svc = _make_service(service_root, plan, chaos).open()
    job_ids = _seed_service_jobs(svc, plan)

    chaos_kills = 0
    journal_failures = 0
    store_damage = 0
    store_salvaged = 0
    if chaos:
        fs = FaultFS()
        fs.add_rule(svc.store.path, **plan.fs_rule_kwargs())
        fs.add_rule(svc.store.path, **plan.corrupt_rule_kwargs("store"))
        with fs:
            # Crash cycles: pump a little, then abandon the instance
            # without any shutdown courtesy (journal-first means disk is
            # the only truth) and recover into a fresh one.  Each
            # recovery scrubs the journal: rotted records are
            # quarantined and the reopened instance re-runs whatever
            # transitions that loss reverted.
            for _ in range(plan.restarts):
                svc.pump(max_batches=1)
                svc.stop()
                chaos_kills += svc.executor.stats().chaos_kills
                journal_failures += svc.stats()["chaos"]["journal_write_failures"]
                svc = _reopen_service(service_root, plan, chaos, deadline)
                store_salvaged += svc.store.salvaged_records
            _drain_service(svc, deadline)
        fs_faults = fs.failures
        store_damage = fs.damage_records
    else:
        fs_faults = 0
        _drain_service(svc, deadline)
    chaos_kills += svc.executor.stats().chaos_kills
    journal_failures += svc.stats()["chaos"]["journal_write_failures"]
    recovered_jobs = svc.stats()["recovered_jobs"]
    svc.store.compact()
    svc.stop()

    # Durable truth: reopen the journal from disk in a fresh store —
    # unless the sabotage mode says to trust an unreplayed one.
    verify_store = SessionStore(svc.store.path)
    if break_invariant != "skip-replay":
        verify_store.open()
        store_salvaged += verify_store.salvaged_records
    final = _make_service(service_root, plan, chaos=False)
    evals_spent = {
        tenant: final.admission.evals_spent(verify_store, tenant)
        for tenant in _TENANTS
    }
    final.stop()
    return {
        "state": _service_state_digest(verify_store),
        "evals_spent": evals_spent,
        "n_jobs": len(job_ids),
        "chaos_kills": chaos_kills,
        "journal_failures": journal_failures,
        "fs_faults": fs_faults,
        "store_damage": store_damage,
        "store_salvaged": store_salvaged,
        "recovered_jobs": recovered_jobs,
    }


# ----------------------------------------------------------------------
# Orphan sweep
# ----------------------------------------------------------------------
def _scan_orphans(root: str) -> list[str]:
    """Leftover temporaries under ``root``."""
    orphans = []
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in filenames:
            if name.endswith(".tmp"):
                orphans.append(os.path.relpath(os.path.join(dirpath, name), root))
    return sorted(orphans)


# ----------------------------------------------------------------------
def run_workload(
    plan: ChaosPlan,
    root,
    chaos: bool = True,
    break_invariant: str | None = None,
) -> dict:
    """Run the three-phase workload under ``plan``; returns the outcome.

    ``chaos=False`` produces the fault-free reference run (same
    evaluator-fault schedule, no operational chaos).  The outcome dict
    is JSON-safe and feeds :func:`repro.chaos.oracle.verify_outcomes`.
    """
    if break_invariant is not None and break_invariant not in BREAK_INVARIANT_MODES:
        raise ValueError(
            f"unknown break_invariant {break_invariant!r}; "
            f"known: {BREAK_INVARIANT_MODES}"
        )
    root = os.fspath(root)
    os.makedirs(root, exist_ok=True)
    search = _run_search_phase(plan, root, chaos, break_invariant)
    grid = _run_grid_phase(plan, root, chaos, break_invariant)
    service = _run_service_phase(plan, root, chaos, break_invariant)
    return {
        "plan": plan.to_wire(),
        "chaos": chaos,
        "search": search,
        "grid": grid,
        "service": service,
        "orphans": _scan_orphans(root),
        "live_children": len(mp.active_children()),
    }
