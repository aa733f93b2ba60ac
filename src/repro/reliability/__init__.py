"""Fault tolerance for the evaluation pipeline.

The paper's Section V reports a real-world reliability failure: on the
ARM X-Gene machine, compile and run times exceeded the experiment
budget and data could not be collected.  This package makes the
reproduction's evaluation path production-grade around exactly that
class of hazard:

* :mod:`~repro.reliability.faults` — seeded, deterministic fault
  injection (glitches, compile crashes, timeouts, outages) that never
  perturbs the common-random-numbers streams;
* :mod:`~repro.reliability.policy` — retry/backoff schedules in
  simulated seconds;
* :mod:`~repro.reliability.resilient` — the
  :class:`ResilientEvaluator` wrapper: retries with clock-charged
  exponential backoff, waits out outages, degrades gracefully to
  censored or failed measurements instead of raising;
* :mod:`~repro.reliability.checkpoint` — checkpoint/resume for
  searches, tuning runs and transfer sessions, preserving CRN
  alignment bit-for-bit across the interruption; every checkpoint is
  an append-only journal of CRC32-framed lines, salvaged on load like
  the run registry, so damage costs only the saves it hit;
* :mod:`~repro.reliability.stats` — counters describing how much the
  reliability machinery actually worked.
"""

from repro.reliability.checkpoint import (
    CheckpointManager,
    SearchCheckpoint,
    load_traces,
    save_traces,
    trace_from_dict,
    trace_to_dict,
)
from repro.reliability.faults import FAULT_MODES, FaultInjector, FaultSpec, FaultyEvaluator
from repro.reliability.policy import RetryPolicy
from repro.reliability.resilient import FailedMeasurement, ResilientEvaluator
from repro.reliability.stats import ReliabilityStats

__all__ = [
    "FAULT_MODES",
    "FaultSpec",
    "FaultInjector",
    "FaultyEvaluator",
    "RetryPolicy",
    "FailedMeasurement",
    "ResilientEvaluator",
    "ReliabilityStats",
    "CheckpointManager",
    "SearchCheckpoint",
    "trace_to_dict",
    "trace_from_dict",
    "save_traces",
    "load_traces",
]
