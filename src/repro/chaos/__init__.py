"""System-wide chaos orchestration with a crash-consistency oracle.

Five layers already inject faults in isolation — evaluator faults
(:mod:`repro.reliability.faults`), worker kills
(:class:`repro.exec.ChaosConfig`), journal write failures
(:class:`~repro.chaos.faultfs.FaultFS`), checkpoint kill/resume, and
silent bit rot (:func:`~repro.chaos.faultfs.corrupt_file` under
:data:`~repro.chaos.faultfs.CORRUPT_MODES`).  This package composes
them: a seed-derived :class:`~repro.chaos.plan.ChaosPlan` schedules
all five at once, a canonical
:func:`~repro.chaos.workload.run_workload` drives search, grid, and
service through the schedule, and the :mod:`~repro.chaos.oracle`
proves the chaos run converged to the fault-free reference —
byte-identical traces and checkpoints, zero re-executed cells,
equivalent store state, conserved budgets, loss bounded by the damaged
record count, no orphans.
:func:`~repro.chaos.campaign.run_chaos_campaign` sweeps N seeded plans
through the journaled grid machinery (``make chaos``).
"""

from repro.chaos.campaign import render_campaign_report, run_chaos_campaign
from repro.chaos.faultfs import (
    CORRUPT_MODES,
    FAULTFS_MODES,
    FaultFS,
    FaultRule,
    corrupt_file,
)
from repro.chaos.oracle import (
    InvariantCheck,
    OracleReport,
    run_oracle,
    verify_outcomes,
)
from repro.chaos.plan import ChaosPlan
from repro.chaos.workload import BREAK_INVARIANT_MODES, run_workload

__all__ = [
    "CORRUPT_MODES",
    "FAULTFS_MODES",
    "FaultFS",
    "FaultRule",
    "corrupt_file",
    "ChaosPlan",
    "BREAK_INVARIANT_MODES",
    "run_workload",
    "InvariantCheck",
    "OracleReport",
    "verify_outcomes",
    "run_oracle",
    "run_chaos_campaign",
    "render_campaign_report",
]
