"""Deterministic fault injection for evaluation pipelines.

The paper's own data collection failed on the X-Gene machine — compile
and run times blew the budget (Section V) — and real autotuning runs
additionally hit compiler crashes, flaky measurements, timeouts, and
machine outages.  This module simulates those operational hazards
*deterministically*: every fault decision is a pure function of the
fault seed, the configuration index, and the attempt number, computed
with the stateless :func:`repro.utils.rng.hash_uniform`.  Crucially,
injection consumes **no** state from any shared generator, so the
common-random-numbers streams of Section IV-D stay bit-aligned whether
or not faults fire, and a checkpoint/resume replays identical faults.

Failure modes
-------------
``transient``
    A one-off measurement glitch.  Burns a fraction of the evaluation
    cost, then raises :class:`TransientEvaluationError`.  A retry of the
    same configuration draws a fresh decision and usually succeeds.
``compile-crash``
    The (simulated) compiler crashes on the variant.  Burns the compile
    time, then raises :class:`CompileCrashError`.  Deterministic per
    (config, attempt) key — retrying is modelled as useless.
``timeout``
    The variant runs past the runtime cap.  Burns the compile time plus
    the cap, then raises :class:`EvaluationTimeout` carrying the cap as
    a censored (lower-bound) measurement.
``outage``
    The machine goes down for a recovery horizon of simulated seconds.
    Raises :class:`MachineOutageError`; until the horizon passes, every
    further evaluation on the machine fails the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import (
    CompileCrashError,
    EvaluationError,
    EvaluationTimeout,
    MachineOutageError,
    TransientEvaluationError,
)
from repro.utils.rng import hash_uniform

__all__ = ["FaultSpec", "FaultInjector", "FaultyEvaluator", "FAULT_MODES"]

FAULT_MODES: tuple[str, ...] = ("transient", "compile-crash", "timeout", "outage")


@dataclass(frozen=True)
class FaultSpec:
    """Per-mode fault rates and severities (all rates per attempt)."""

    transient_rate: float = 0.0
    compile_crash_rate: float = 0.0
    timeout_rate: float = 0.0
    outage_rate: float = 0.0
    timeout_cap_seconds: float = 120.0  # runtime cap => censored value
    outage_horizon_seconds: float = 600.0  # machine recovery horizon
    transient_cost_fraction: float = 0.5  # evaluation cost a glitch burns
    seed: object = 0

    def __post_init__(self) -> None:
        for name in ("transient_rate", "compile_crash_rate", "timeout_rate", "outage_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise EvaluationError(f"{name} must be in [0, 1], got {rate}")
        if self.total_rate > 1.0:
            raise EvaluationError(
                f"fault rates sum to {self.total_rate:.3g}; must be <= 1"
            )
        if self.timeout_cap_seconds <= 0:
            raise EvaluationError("timeout_cap_seconds must be positive")
        if self.outage_horizon_seconds <= 0:
            raise EvaluationError("outage_horizon_seconds must be positive")
        if not 0.0 <= self.transient_cost_fraction <= 1.0:
            raise EvaluationError("transient_cost_fraction must be in [0, 1]")

    @property
    def total_rate(self) -> float:
        return (
            self.transient_rate
            + self.compile_crash_rate
            + self.timeout_rate
            + self.outage_rate
        )

    @classmethod
    def uniform(cls, rate: float, seed: object = 0, **overrides) -> "FaultSpec":
        """A spec with total fault probability ``rate``, split across the
        modes in a representative mixture (half transient glitches, the
        rest split between compile crashes, timeouts, and rare outages).
        """
        if not 0.0 <= rate <= 1.0:
            raise EvaluationError(f"rate must be in [0, 1], got {rate}")
        spec = cls(
            transient_rate=0.5 * rate,
            compile_crash_rate=0.2 * rate,
            timeout_rate=0.2 * rate,
            outage_rate=0.1 * rate,
            seed=seed,
        )
        return replace(spec, **overrides) if overrides else spec


class FaultInjector:
    """Seeded, order-independent fault decisions plus outage bookkeeping.

    The only mutable state is the outage window (``outage_until``, in
    simulated seconds) and diagnostic counters; both serialize through
    :meth:`state_dict` so a resumed search replays the exact hazard
    history of the interrupted one.
    """

    def __init__(self, spec: FaultSpec) -> None:
        self.spec = spec
        self.outage_until = 0.0
        self.counts: dict[str, int] = {mode: 0 for mode in FAULT_MODES}

    def draw(self, config_index: int, attempt: int) -> str | None:
        """The fault mode (or None) for one evaluation attempt.

        Pure in (spec.seed, config_index, attempt): no generator state
        is consumed, so CRN alignment and resume determinism hold.
        """
        u = hash_uniform("fault-injector", self.spec.seed, int(config_index), int(attempt))
        edge = 0.0
        for mode, rate in (
            ("transient", self.spec.transient_rate),
            ("compile-crash", self.spec.compile_crash_rate),
            ("timeout", self.spec.timeout_rate),
            ("outage", self.spec.outage_rate),
        ):
            edge += rate
            if u < edge:
                return mode
        return None

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        return {"outage_until": self.outage_until, "counts": dict(self.counts)}

    def load_state(self, state: dict) -> None:
        self.outage_until = float(state["outage_until"])
        self.counts = {mode: int(state["counts"].get(mode, 0)) for mode in FAULT_MODES}


class FaultyEvaluator:
    """An evaluator wrapper that injects the spec's faults.

    Follows the :class:`repro.orio.evaluator.OrioEvaluator` protocol:
    ``evaluate(config)`` either returns the inner measurement or charges
    the simulated cost the failure burned and raises the matching
    :class:`~repro.errors.EvaluationFailure` subclass.  Failed attempts
    are real work — their compile/run seconds hit the clock, so
    unreliability honestly degrades search-time speedups.
    """

    def __init__(self, evaluator, spec: FaultSpec) -> None:
        self.evaluator = evaluator
        self.injector = FaultInjector(spec)
        self._attempts: dict[int, int] = {}  # config index -> attempts so far

    # Pass-through surface of the evaluator protocol -------------------
    @property
    def clock(self):
        return self.evaluator.clock

    @property
    def spec(self) -> FaultSpec:
        return self.injector.spec

    def __getattr__(self, name: str):
        # kernel/space/machine/n_evaluations etc. come from the wrapped
        # evaluator; only reliability state lives here.
        return getattr(self.evaluator, name)

    # ------------------------------------------------------------------
    def measure(self, config):
        """Fault-free measurement (no clock charge), for cost inspection."""
        return self.evaluator.measure(config)

    def evaluate(self, config):
        spec = self.injector.spec
        if self.clock.now < self.injector.outage_until:
            raise MachineOutageError(
                f"machine down until t={self.injector.outage_until:.3g}s "
                f"(now {self.clock.now:.3g}s)",
                retry_after=self.injector.outage_until - self.clock.now,
            )
        attempt = self._attempts.get(config.index, 0)
        self._attempts[config.index] = attempt + 1
        mode = self.injector.draw(config.index, attempt)
        if mode is None:
            return self.evaluator.evaluate(config)

        self.injector.counts[mode] += 1
        if mode == "outage":
            # The machine drops *before* any work happens; nothing to
            # charge yet — waiting out the horizon is the caller's cost.
            self.injector.outage_until = self.clock.now + spec.outage_horizon_seconds
            raise MachineOutageError(
                f"machine outage at t={self.clock.now:.3g}s "
                f"(horizon {spec.outage_horizon_seconds:g}s)",
                retry_after=spec.outage_horizon_seconds,
            )
        m = self.evaluator.measure(config)
        if mode == "transient":
            self.clock.advance(spec.transient_cost_fraction * m.evaluation_cost)
            raise TransientEvaluationError(
                f"transient measurement glitch on config {config.index}"
            )
        if mode == "compile-crash":
            self.clock.advance(m.compile_seconds)
            raise CompileCrashError(
                f"compiler crashed on config {config.index}"
            )
        # timeout: pay the compile plus the capped run, learn only a bound.
        self.clock.advance(m.compile_seconds + spec.timeout_cap_seconds)
        raise EvaluationTimeout(
            f"config {config.index} exceeded the {spec.timeout_cap_seconds:g}s cap",
            censored_at=spec.timeout_cap_seconds,
        )

    def __call__(self, config) -> float:
        return self.evaluate(config).runtime_seconds

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def reliability_state(self) -> dict:
        return {
            "injector": self.injector.state_dict(),
            "attempts": {str(k): v for k, v in self._attempts.items()},
        }

    def load_reliability_state(self, state: dict) -> None:
        self.injector.load_state(state["injector"])
        self._attempts = {int(k): int(v) for k, v in state["attempts"].items()}
