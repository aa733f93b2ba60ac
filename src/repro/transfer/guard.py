"""Online model-health monitoring — negative-transfer guardrails.

The paper's transfer variants (RSp/RSb/RSpb) follow a source-machine
surrogate unconditionally, and its own results show that is not always
safe: when source and target differ enough, the model prunes the good
region or biases toward the bad one and the variant *loses* to plain
random search (Prf < 1.0).  This module scores the surrogate against
reality while a guarded search runs, and demotes it the moment the
evidence says it is misleading:

* :class:`ModelHealthMonitor` accumulates ``(predicted, observed)``
  pairs from the target machine and reports a streaming Spearman rank
  correlation, the empirical coverage of ``predict_std`` prediction
  intervals, and the best runtime seen — the regret baseline for
  pruning audits.
* :class:`GuardPolicy` is the immutable configuration of a three-state
  machine — ``TRUSTED → SUSPECT → REVOKED`` with hysteresis (entry /
  revoke / recovery patience counters) and a minimum-evidence floor so
  a few noisy early measurements cannot flip it.
* :class:`ModelGuard` is the per-run instance: it owns the monitor,
  the state, the audit bookkeeping, and a JSON-exact
  ``state_dict``/``load_state`` pair so guard decisions survive
  checkpoint/resume bit-identically.

Everything here is pure bookkeeping over measurements the search
already paid for — the guard charges nothing to the simulated clock,
draws nothing from the shared stream, and is therefore deterministic
under common random numbers.  The search-side wrappers that act on the
guard's verdict live in :mod:`repro.search.guarded`; they duck-type
the guard, so this module stays import-free of the search layer's
internals.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Sequence

from repro.errors import ModelError, PolicyError
from repro.utils.stats import rank

__all__ = [
    "TRUSTED",
    "SUSPECT",
    "REVOKED",
    "GUARD_STATES",
    "spearman_rho",
    "ModelHealthMonitor",
    "GuardPolicy",
    "ModelGuard",
]

#: the model's predictions are healthy; the search runs unmodified.
TRUSTED = "trusted"
#: evidence against the model — hedge: widen pruning, flatten biasing.
SUSPECT = "suspect"
#: the model is harmful; fall back to plain RS on the shared stream.
REVOKED = "revoked"

GUARD_STATES = (TRUSTED, SUSPECT, REVOKED)


def spearman_rho(a: Sequence[float], b: Sequence[float]) -> float | None:
    """Spearman rank correlation; ``None`` when undefined (constant side)."""
    if len(a) != len(b):
        raise ModelError("spearman_rho: length mismatch")
    if len(a) < 2:
        return None
    ra = rank(a)
    rb = rank(b)
    sa = ra - ra.mean()
    sb = rb - rb.mean()
    denom = math.sqrt(float(sa @ sa) * float(sb @ sb))
    if denom == 0.0:
        return None
    return float(sa @ sb) / denom


class ModelHealthMonitor:
    """Streaming statistics of surrogate predictions vs. target reality.

    Fed one observation at a time by :class:`ModelGuard`; every
    statistic is recomputed from the stored pairs, so a monitor
    restored from :meth:`state_dict` reports bit-identical values.
    """

    def __init__(self) -> None:
        self.predicted: list[float] = []
        self.observed: list[float] = []
        self.residuals: list[float] = []  # model-space observed - predicted
        self.sigmas: list[float] = []  # predict_std at each residual
        self.best_observed: float | None = None
        self.n_failed = 0

    @property
    def n_pairs(self) -> int:
        return len(self.predicted)

    def update(
        self,
        predicted: float,
        observed: float,
        residual: float | None = None,
        sigma: float | None = None,
    ) -> None:
        self.predicted.append(float(predicted))
        self.observed.append(float(observed))
        if residual is not None and sigma is not None:
            self.residuals.append(float(residual))
            self.sigmas.append(float(sigma))

    def note_observed(self, runtime: float) -> None:
        """Track the best successful runtime seen (regret baseline)."""
        if self.best_observed is None or runtime < self.best_observed:
            self.best_observed = float(runtime)

    def rho(self) -> float | None:
        """Rank correlation between predictions and observations."""
        return spearman_rho(self.predicted, self.observed)

    def coverage(self, z_critical: float) -> float | None:
        """Fraction of observations within ±``z_critical`` model-space
        standard deviations of the prediction, after removing the
        *systematic* source→target offset (the running median
        residual): cross-machine transfer shifts every runtime by the
        machines' scale ratio, which rank-based search does not care
        about — what calibration must catch is residual *dispersion*
        far beyond the model's claimed uncertainty.  ``None`` without
        ``predict_std`` evidence."""
        if not self.residuals:
            return None
        center = statistics.median(self.residuals)
        inside = sum(
            1
            for r, s in zip(self.residuals, self.sigmas)
            if abs(r - center) <= z_critical * s
        )
        return inside / len(self.residuals)

    def state_dict(self) -> dict:
        return {
            "predicted": list(self.predicted),
            "observed": list(self.observed),
            "residuals": list(self.residuals),
            "sigmas": list(self.sigmas),
            "best_observed": self.best_observed,
            "n_failed": self.n_failed,
        }

    def load_state(self, state: dict) -> None:
        self.predicted = [float(v) for v in state["predicted"]]
        self.observed = [float(v) for v in state["observed"]]
        self.residuals = [float(v) for v in state["residuals"]]
        self.sigmas = [float(v) for v in state["sigmas"]]
        best = state["best_observed"]
        self.best_observed = None if best is None else float(best)
        self.n_failed = int(state["n_failed"])


@dataclass(frozen=True)
class GuardPolicy:
    """Immutable thresholds of the guard's three-state machine.

    The machine moves on *streaks* of consecutive verdicts, never on a
    single update: ``suspect_patience`` unhealthy updates demote
    ``TRUSTED → SUSPECT``, ``revoke_patience`` strongly-negative ones
    (or ``regret_limit`` pruning-audit regrets) demote ``SUSPECT →
    REVOKED``, and ``recover_patience`` healthy updates restore
    ``SUSPECT → TRUSTED`` — the hysteresis gap between ``suspect_rho``
    and ``recover_rho`` keeps it from flapping.  ``REVOKED`` is
    terminal for the run: a model caught inverting the target's
    ordering does not earn trust back.  No verdict is rendered before
    ``min_evidence`` pairs exist.
    """

    min_evidence: int = 8
    suspect_rho: float = 0.1
    revoke_rho: float = 0.0
    recover_rho: float = 0.5
    suspect_patience: int = 2
    revoke_patience: int = 2
    recover_patience: int = 3
    min_coverage: float = 0.3
    z_critical: float = 3.0
    widen_factor: float = 2.0
    audit_every: int = 4
    regret_limit: int = 2

    def __post_init__(self) -> None:
        if self.min_evidence < 2:
            raise PolicyError("min_evidence must be >= 2")
        for name in ("revoke_rho", "suspect_rho", "recover_rho"):
            if not -1.0 < getattr(self, name) < 1.0:
                raise PolicyError(
                    f"{name} must be strictly inside (-1, 1), got "
                    f"{getattr(self, name)}"
                )
        if not self.revoke_rho <= self.suspect_rho < self.recover_rho:
            raise PolicyError(
                "need revoke_rho <= suspect_rho < recover_rho (the strict "
                "hysteresis gap keeps the state machine from flapping), got "
                f"{self.revoke_rho} / {self.suspect_rho} / {self.recover_rho}"
            )
        for name in ("suspect_patience", "revoke_patience", "recover_patience",
                     "audit_every", "regret_limit"):
            if getattr(self, name) < 1:
                raise PolicyError(f"{name} must be >= 1")
        if not 0.0 <= self.min_coverage <= 1.0:
            raise PolicyError("min_coverage must be in [0, 1]")
        if self.z_critical <= 0:
            raise PolicyError("z_critical must be positive")
        if self.widen_factor < 1.0:
            raise PolicyError("widen_factor must be >= 1")

    def build(self, surrogate: object | None = None) -> "ModelGuard":
        """A fresh per-run :class:`ModelGuard` under this policy."""
        return ModelGuard(self, surrogate)


@dataclass
class _Transition:
    """Internal record of one state change (stored as plain dicts)."""

    evaluation: int
    frm: str
    to: str
    reason: str
    rho: float | None
    coverage: float | None

    def as_dict(self) -> dict:
        return {
            "evaluation": self.evaluation,
            "from": self.frm,
            "to": self.to,
            "reason": self.reason,
            "rho": self.rho,
            "coverage": self.coverage,
        }


class ModelGuard:
    """Per-run guard instance: monitor + state machine + audit ledger.

    Fed by :class:`repro.search.guarded.GuardedProposer` (every
    observation) and :class:`repro.search.guarded.GuardedGate`
    (rejection/audit bookkeeping).  All mutable state round-trips
    through :meth:`state_dict`/:meth:`load_state` as plain JSON types,
    riding in the engine checkpoint's ``extra`` payload.
    """

    def __init__(self, policy: GuardPolicy, surrogate: object | None = None) -> None:
        self.policy = policy
        self.surrogate = surrogate
        self.monitor = ModelHealthMonitor()
        self.state = TRUSTED
        self.transitions: list[dict] = []
        self.audits = 0
        self.audit_regrets = 0
        self.widened_admits = 0
        self.fallback_proposals = 0
        self._bad_streak = 0
        self._good_streak = 0
        self._revoke_streak = 0
        self._rejections_since_audit = 0
        self._pending_audit: int | None = None

    # -- identity ------------------------------------------------------
    @property
    def interventions(self) -> int:
        """How often the guard changed what the search would have done."""
        return self.audits + self.widened_admits + self.fallback_proposals

    # -- gate-side hooks ----------------------------------------------
    def note_widened_admit(self) -> None:
        self.widened_admits += 1

    def audit_due(self) -> bool:
        """Count one pruning rejection; every ``audit_every``-th one
        (while no audit is in flight) is promoted to an audit."""
        if self._pending_audit is not None:
            return False
        self._rejections_since_audit += 1
        if self._rejections_since_audit >= self.policy.audit_every:
            self._rejections_since_audit = 0
            return True
        return False

    def begin_audit(self, proposal) -> None:
        self._pending_audit = int(proposal.config.index)

    def note_fallback_proposal(self) -> None:
        self.fallback_proposals += 1

    # -- observation path ---------------------------------------------
    def observe(self, ctx, proposal, runtime: float, failed: bool) -> None:
        """Digest one engine observation and advance the state machine.

        ``runtime`` is the observed (possibly censored) value;
        ``failed`` marks operational failures whose runtimes are
        penalties, not measurements — those count toward
        ``monitor.n_failed`` only.
        """
        audited = False
        config_index = int(proposal.config.index)
        if self._pending_audit is not None and config_index == self._pending_audit:
            audited = True
            self.audits += 1
            self._pending_audit = None
        ok = (not failed) and math.isfinite(runtime) and runtime > 0
        if ok:
            if audited and (
                self.monitor.best_observed is not None
                and runtime < self.monitor.best_observed
            ):
                # A would-be-pruned configuration beat everything the
                # model admitted: direct evidence of pruning regret.
                self.audit_regrets += 1
            predicted = getattr(proposal, "predicted", None)
            if predicted is not None:
                residual, sigma = self._residual(proposal, runtime)
                self.monitor.update(float(predicted), runtime, residual, sigma)
            self.monitor.note_observed(runtime)
        else:
            self.monitor.n_failed += 1
        self._update_state(ctx)
        if self.transitions:
            # Only an active guard leaves a mark on the trace; a guard
            # that stayed TRUSTED throughout keeps the trace identical
            # to an unguarded run.
            ctx.trace.metadata["guard"] = self.metadata()

    def _residual(self, proposal, runtime: float) -> tuple[float, float] | tuple[None, None]:
        """Log-space ``(observed - predicted, predict_std)`` when the
        learner exposes an ensemble spread (the surrogate models log
        runtime).  Reuses the prediction the gate already paid for —
        calibration adds no simulated cost."""
        surrogate = self.surrogate
        if surrogate is None or not getattr(surrogate, "supports_std", False):
            return None, None
        sigma = float(surrogate.predict_std([proposal.config])[0])
        if not math.isfinite(sigma) or sigma <= 0:
            return None, None
        predicted = float(proposal.predicted)
        if predicted <= 0:
            return None, None
        return math.log(runtime) - math.log(predicted), sigma

    # -- state machine -------------------------------------------------
    def _update_state(self, ctx) -> None:
        if self.state == REVOKED:
            return
        policy = self.policy
        if self.monitor.n_pairs < policy.min_evidence:
            return
        rho = self.monitor.rho()
        cov = self.monitor.coverage(policy.z_critical)
        rho_bad = rho is not None and rho < policy.suspect_rho
        cov_bad = cov is not None and cov < policy.min_coverage
        if self.state == TRUSTED:
            self._bad_streak = self._bad_streak + 1 if (rho_bad or cov_bad) else 0
            if self._bad_streak >= policy.suspect_patience:
                self._transition(
                    ctx, SUSPECT,
                    f"rank correlation {_fmt(rho)} < {policy.suspect_rho}"
                    if rho_bad else
                    f"interval coverage {_fmt(cov)} < {policy.min_coverage}",
                    rho, cov,
                )
                self._bad_streak = self._good_streak = self._revoke_streak = 0
            return
        # SUSPECT
        if self.audit_regrets >= policy.regret_limit:
            self._transition(
                ctx, REVOKED,
                f"pruning audits found {self.audit_regrets} regret(s)", rho, cov,
            )
            return
        very_bad = (rho is not None and rho < policy.revoke_rho) or (
            rho is None and cov_bad
        )
        self._revoke_streak = self._revoke_streak + 1 if very_bad else 0
        if self._revoke_streak >= policy.revoke_patience:
            self._transition(
                ctx, REVOKED,
                f"rank correlation {_fmt(rho)} < {policy.revoke_rho}", rho, cov,
            )
            return
        healthy = (rho is not None and rho >= policy.recover_rho) and not cov_bad
        self._good_streak = self._good_streak + 1 if healthy else 0
        if self._good_streak >= policy.recover_patience:
            self._transition(
                ctx, TRUSTED,
                f"rank correlation {_fmt(rho)} >= {policy.recover_rho}", rho, cov,
            )
            self._bad_streak = self._good_streak = self._revoke_streak = 0

    def _transition(self, ctx, to: str, reason: str,
                    rho: float | None, cov: float | None) -> None:
        record = _Transition(
            evaluation=ctx.trace.n_evaluations,
            frm=self.state, to=to, reason=reason, rho=rho, coverage=cov,
        )
        self.transitions.append(record.as_dict())
        self.state = to

    # -- reporting -----------------------------------------------------
    def metadata(self) -> dict:
        """Deterministic, JSON-safe summary recorded on the trace."""
        return {
            "state": self.state,
            "transitions": [dict(t) for t in self.transitions],
            "n_pairs": self.monitor.n_pairs,
            "rho": self.monitor.rho(),
            "coverage": self.monitor.coverage(self.policy.z_critical),
            "n_failed": self.monitor.n_failed,
            "audits": self.audits,
            "audit_regrets": self.audit_regrets,
            "widened_admits": self.widened_admits,
            "fallback_proposals": self.fallback_proposals,
        }

    # -- persistence ---------------------------------------------------
    def state_dict(self) -> dict:
        return {
            "state": self.state,
            "monitor": self.monitor.state_dict(),
            "transitions": [dict(t) for t in self.transitions],
            "audits": self.audits,
            "audit_regrets": self.audit_regrets,
            "widened_admits": self.widened_admits,
            "fallback_proposals": self.fallback_proposals,
            "bad_streak": self._bad_streak,
            "good_streak": self._good_streak,
            "revoke_streak": self._revoke_streak,
            "rejections_since_audit": self._rejections_since_audit,
            "pending_audit": self._pending_audit,
        }

    def load_state(self, state: dict) -> None:
        if state["state"] not in GUARD_STATES:
            raise ModelError(f"unknown guard state {state['state']!r}")
        self.state = state["state"]
        self.monitor.load_state(state["monitor"])
        self.transitions = [dict(t) for t in state["transitions"]]
        self.audits = int(state["audits"])
        self.audit_regrets = int(state["audit_regrets"])
        self.widened_admits = int(state["widened_admits"])
        self.fallback_proposals = int(state["fallback_proposals"])
        self._bad_streak = int(state["bad_streak"])
        self._good_streak = int(state["good_streak"])
        self._revoke_streak = int(state["revoke_streak"])
        self._rejections_since_audit = int(state["rejections_since_audit"])
        pending = state["pending_audit"]
        self._pending_audit = None if pending is None else int(pending)


def _fmt(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.3f}"
