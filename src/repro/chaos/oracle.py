"""The crash-consistency oracle: chaos run vs fault-free reference.

The oracle's contract is the system property the five robustness layers
were built to provide: *a faulted, killed, disk-starved, bit-rotted run
provably converges to the same answer as a clean one.*  Concretely, for any
:class:`~repro.chaos.plan.ChaosPlan`, the outcome of
:func:`~repro.chaos.workload.run_workload` under chaos must match the
fault-free reference on every invariant below — where the reference
shares the plan's *evaluator*-fault schedule (simulation input) and
differs only in operational chaos (kills, hangs, filesystem faults,
deadline pressure, crash/restart cycles).

Invariants
----------
``trace-identical``
    The search phase's final trace digest (configs, runtimes, elapsed
    times, failure flags) is identical across any number of
    kill-mid-save/resume cycles.
``checkpoint-bytes``
    The final checkpoint file is byte-identical — resume state, clock,
    and reliability history all converged, not just the headline trace.
``zero-reexecuted-cells``
    After chaos, a verification ``run_grid`` pass executes **zero**
    cells: everything acknowledged into the registry journal survived
    every crash, and nothing acknowledged is ever recomputed.
``registry-state``
    Every cell's journaled result equals the reference's, fingerprint
    by fingerprint — crashes changed *where* cells ran, never *what*
    they computed.
``service-state``
    The session store, reopened from disk after compaction, holds the
    same sessions and jobs (states, costs, results — timestamps
    excluded) as the reference store.  When the bit-rot layer damaged
    store records (``store_damage > 0``) the requirement relaxes to a
    *bounded subset*: every surviving session/job is bit-identical to
    its reference twin and nothing exists that the reference lacks —
    corruption may lose records, never invent or alter state.
``quota-conservation``
    Per-tenant ``evals_spent`` matches the reference: no chaos
    interleaving leaked budget or double-charged/double-refunded a job.
    Jobs lost to quarantined store records are excluded from the
    expected spend (their audit row is gone with them) — at zero store
    damage this degenerates to exact equality.
``corruption-bounded-loss``
    Bit rot costs only what it damaged: the grid's salvage/recovery
    pass re-executed no more cells than the number of damaged registry
    records (zero at zero damage — undamaged cells are never
    recomputed), and the store lost no more sessions+jobs than it had
    damaged or quarantined records.
``no-orphans``
    No worker processes outlive the workload and no stray temporary
    files (``*.tmp``) remain under the root.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass

from repro.chaos.plan import ChaosPlan
from repro.chaos.workload import run_workload
from repro.service.model import JOB_CANCELLED, JOB_EXPIRED, JOB_SHED

__all__ = ["InvariantCheck", "OracleReport", "verify_outcomes", "run_oracle"]

#: Job states whose cost the admission layer refunds — a job lost to a
#: quarantined store record only shifts expected spend when its
#: reference twin actually spent budget.
_REFUNDED_STATES = frozenset({JOB_CANCELLED, JOB_EXPIRED, JOB_SHED})


@dataclass(frozen=True)
class InvariantCheck:
    """One invariant's verdict (``detail`` explains a failure)."""

    name: str
    passed: bool
    detail: str = ""

    def __str__(self) -> str:
        mark = "ok" if self.passed else "FAIL"
        suffix = f" ({self.detail})" if self.detail and not self.passed else ""
        return f"{self.name}: {mark}{suffix}"


@dataclass(frozen=True)
class OracleReport:
    """Every invariant's verdict for one plan."""

    plan_seed: str
    checks: tuple[InvariantCheck, ...]

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    @property
    def failures(self) -> tuple[InvariantCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def to_wire(self) -> dict:
        return {
            "plan_seed": self.plan_seed,
            "passed": self.passed,
            "checks": {
                c.name: {"passed": c.passed, "detail": c.detail}
                for c in self.checks
            },
        }

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        lines = [f"oracle[{self.plan_seed}]: {verdict}"]
        lines.extend(f"  {check}" for check in self.checks)
        return "\n".join(lines)


def _check(name: str, passed: bool, detail: str = "") -> InvariantCheck:
    return InvariantCheck(name=name, passed=bool(passed),
                          detail="" if passed else detail)


def _freeze(value):
    """Lists → tuples, recursively, so digests compare across JSON trips."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


def _indexed(state: dict, kind: str) -> dict:
    """One state digest section as ``{id: normalized_row}``."""
    return {row[0]: row for row in (_freeze(r) for r in state.get(kind, ()))}


def _service_loss(ref_state: dict, cha_state: dict) -> tuple[int, list, str]:
    """Bounded-subset comparison of the chaos store against the reference.

    Returns ``(n_missing, missing_jobs, violation)``: how many
    reference sessions+jobs the chaos state lacks, the reference rows
    of the missing jobs (for spend accounting), and a non-empty
    ``violation`` when the chaos state is not a clean subset — i.e. it
    *invented* entries the reference lacks or *altered* a surviving
    entry, which no amount of record loss can explain.
    """
    problems = []
    n_missing = 0
    missing_jobs: list = []
    for kind in ("sessions", "jobs"):
        ref = _indexed(ref_state, kind)
        cha = _indexed(cha_state, kind)
        invented = sorted(set(cha) - set(ref))
        if invented:
            problems.append(f"{kind} absent from the reference: {invented}")
        altered = sorted(k for k in set(cha) & set(ref) if cha[k] != ref[k])
        if altered:
            problems.append(f"{kind} differing from the reference: {altered}")
        missing = sorted(set(ref) - set(cha))
        n_missing += len(missing)
        if kind == "jobs":
            missing_jobs = [ref[k] for k in missing]
    return n_missing, missing_jobs, "; ".join(problems)


def verify_outcomes(reference: dict, chaotic: dict) -> OracleReport:
    """Compare a chaos outcome against its fault-free reference."""
    ref_search, cha_search = reference["search"], chaotic["search"]
    ref_grid, cha_grid = reference["grid"], chaotic["grid"]
    ref_svc, cha_svc = reference["service"], chaotic["service"]

    # Bit-rot accounting: how much silent damage the chaos run absorbed
    # (all zero on pre-corruption outcome dicts, hence the .get()s).
    store_damage = int(cha_svc.get("store_damage", 0))
    store_salvaged = int(cha_svc.get("store_salvaged", 0))
    grid_damage = int(cha_grid.get("damage_records", 0))
    salvage_executed = int(cha_grid.get("salvage_executed", 0))
    n_missing, missing_jobs, subset_violation = _service_loss(
        ref_svc["state"], cha_svc["state"]
    )

    # Jobs whose store records were quarantined took their audit rows
    # with them: the expected per-tenant spend drops by their cost
    # (refunded states never counted).  The allowance exists only when
    # corruption actually damaged records — at zero store damage the
    # expected spend is exactly the reference's.
    lost_spend: dict[str, float] = {}
    if store_damage:
        for job in missing_jobs:
            _job_id, _session_id, tenant, state, cost = job[:5]
            if state not in _REFUNDED_STATES:
                lost_spend[tenant] = lost_spend.get(tenant, 0) + cost
    expected_spent = {
        tenant: spent - lost_spend.get(tenant, 0)
        for tenant, spent in ref_svc["evals_spent"].items()
    }

    checks = [
        _check(
            "trace-identical",
            cha_search["trace_digest"] == ref_search["trace_digest"],
            f"chaos {cha_search['trace_digest'][:12]} != "
            f"reference {ref_search['trace_digest'][:12]} "
            f"({cha_search['n_records']} vs {ref_search['n_records']} records)",
        ),
        _check(
            "checkpoint-bytes",
            cha_search["checkpoint_sha"] == ref_search["checkpoint_sha"],
            "final checkpoint bytes diverged across kill/resume cycles",
        ),
        _check(
            "zero-reexecuted-cells",
            cha_grid["final_executed"] == 0
            and cha_grid["final_cached"] == cha_grid["n_cells"],
            f"verification pass executed {cha_grid['final_executed']} and "
            f"cached {cha_grid['final_cached']} of {cha_grid['n_cells']} cells",
        ),
        _check(
            "registry-state",
            cha_grid["results"] == ref_grid["results"],
            "journaled cell results differ from the reference registry",
        ),
        _check(
            "service-state",
            not subset_violation and (store_damage > 0 or n_missing == 0),
            subset_violation
            or f"{n_missing} session/job entries missing from the chaos "
            "store with zero damaged records",
        ),
        _check(
            "quota-conservation",
            cha_svc["evals_spent"] == expected_spent,
            f"per-tenant spend {cha_svc['evals_spent']} != "
            f"expected {expected_spent} (reference "
            f"{ref_svc['evals_spent']} minus lost jobs {lost_spend})",
        ),
        _check(
            "corruption-bounded-loss",
            salvage_executed <= grid_damage
            and (store_damage == 0 or n_missing <= store_damage + store_salvaged),
            f"salvage re-executed {salvage_executed} cells for "
            f"{grid_damage} damaged registry records; store lost "
            f"{n_missing} entries for {store_damage} damaged + "
            f"{store_salvaged} quarantined records",
        ),
        _check(
            "no-orphans",
            not chaotic["orphans"] and chaotic["live_children"] == 0,
            f"orphans={chaotic['orphans']}, "
            f"live_children={chaotic['live_children']}",
        ),
    ]
    return OracleReport(
        plan_seed=str(chaotic["plan"]["seed"]), checks=tuple(checks)
    )


def run_oracle(
    plan: ChaosPlan,
    root=None,
    break_invariant: str | None = None,
) -> tuple[OracleReport, dict]:
    """Reference run + chaos run + verification for one plan.

    Returns ``(report, chaos_outcome)``.  ``root`` defaults to a fresh
    temporary directory (removed only by the OS; campaign cells pass an
    explicit one and clean it themselves).  ``break_invariant`` is
    threaded into the chaos run for the oracle's negative tests.
    """
    if root is None:
        root = tempfile.mkdtemp(prefix="repro-chaos-")
    root = os.fspath(root)
    reference = run_workload(plan, os.path.join(root, "reference"), chaos=False)
    chaotic = run_workload(
        plan, os.path.join(root, "chaos"), chaos=True,
        break_invariant=break_invariant,
    )
    return verify_outcomes(reference, chaotic), chaotic
