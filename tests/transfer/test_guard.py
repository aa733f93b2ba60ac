"""Tests for the model-health monitor and guard state machine."""

import math
from types import SimpleNamespace

import pytest

from repro.errors import ModelError
from repro.transfer.guard import (
    GUARD_STATES,
    REVOKED,
    SUSPECT,
    TRUSTED,
    GuardPolicy,
    ModelHealthMonitor,
    spearman_rho,
)


def _ctx(n_evaluations=0):
    return SimpleNamespace(
        trace=SimpleNamespace(n_evaluations=n_evaluations, metadata={})
    )


def _proposal(index, predicted=None):
    return SimpleNamespace(config=SimpleNamespace(index=index), predicted=predicted)


def _feed(guard, pairs, start_index=0, ctx=None):
    """Feed (predicted, observed) pairs as successful observations."""
    if ctx is None:
        ctx = _ctx()
    for i, (predicted, observed) in enumerate(pairs):
        ctx.trace.n_evaluations += 1
        guard.observe(ctx, _proposal(start_index + i, predicted), observed, False)
    return ctx


# Predictions 0..5 against this observed order give a near-zero rank
# correlation (rho = 0.0 at n=4, 0.1 at n=5): unhealthy enough to
# demote TRUSTED -> SUSPECT without tripping any revoke threshold.
_MUDDLED = [(0.0, 2.0), (1.0, 6.0), (2.0, 1.0), (3.0, 5.0),
            (4.0, 3.0), (5.0, 4.0)]


class TestSpearman:
    def test_perfect_agreement(self):
        assert spearman_rho([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)

    def test_perfect_inversion(self):
        assert spearman_rho([1, 2, 3, 4], [9, 7, 5, 3]) == pytest.approx(-1.0)

    def test_ties_share_average_rank(self):
        rho = spearman_rho([1.0, 1.0, 2.0], [5.0, 5.0, 9.0])
        assert rho == pytest.approx(1.0)

    def test_constant_side_is_undefined(self):
        assert spearman_rho([1, 1, 1], [1, 2, 3]) is None

    def test_too_few_points(self):
        assert spearman_rho([1], [2]) is None

    def test_length_mismatch(self):
        with pytest.raises(ModelError):
            spearman_rho([1, 2], [1])


class TestMonitor:
    def test_rho_tracks_pairs(self):
        m = ModelHealthMonitor()
        for i in range(5):
            m.update(float(i), float(i) * 2.0)
        assert m.n_pairs == 5
        assert m.rho() == pytest.approx(1.0)

    def test_best_observed(self):
        m = ModelHealthMonitor()
        for y in (3.0, 1.0, 2.0):
            m.note_observed(y)
        assert m.best_observed == 1.0

    def test_coverage_centers_the_systematic_offset(self):
        # A constant cross-machine offset with tiny dispersion must not
        # hurt coverage — the guard cares about dispersion, not scale.
        m = ModelHealthMonitor()
        for i in range(6):
            m.update(1.0, 2.0, residual=5.0 + 0.01 * i, sigma=0.1)
        assert m.coverage(z_critical=3.0) == 1.0

    def test_coverage_catches_dispersion(self):
        m = ModelHealthMonitor()
        for i in range(6):
            m.update(1.0, 2.0, residual=float((-1) ** i) * 10.0, sigma=0.1)
        assert m.coverage(z_critical=3.0) == 0.0

    def test_coverage_none_without_std_evidence(self):
        m = ModelHealthMonitor()
        m.update(1.0, 2.0)
        assert m.coverage(z_critical=3.0) is None

    def test_state_roundtrip_exact(self):
        m = ModelHealthMonitor()
        m.update(1.0, 2.0, residual=0.3, sigma=0.1)
        m.update(4.0, 3.0)
        m.note_observed(2.0)
        m.n_failed = 2
        restored = ModelHealthMonitor()
        restored.load_state(m.state_dict())
        assert restored.state_dict() == m.state_dict()


class TestPolicyValidation:
    def test_defaults_are_valid(self):
        policy = GuardPolicy()
        assert policy.build().state == TRUSTED

    def test_build_returns_fresh_guards(self):
        policy = GuardPolicy()
        assert policy.build() is not policy.build()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_evidence": 1},
            {"suspect_rho": 0.5, "revoke_rho": 0.6},
            {"recover_rho": -0.5},
            {"suspect_patience": 0},
            {"revoke_patience": 0},
            {"recover_patience": 0},
            {"audit_every": 0},
            {"regret_limit": 0},
            {"min_coverage": 1.5},
            {"min_coverage": -0.1},
            {"z_critical": 0.0},
            {"widen_factor": 0.5},
            # rho thresholds must be strictly inside (-1, 1)
            {"suspect_rho": 1.0},
            {"suspect_rho": -1.0},
            {"revoke_rho": -1.0},
            {"recover_rho": 1.0},
            # hysteresis: recover_rho must strictly exceed suspect_rho
            {"suspect_rho": 0.5, "recover_rho": 0.5},
            {"suspect_rho": 0.6, "recover_rho": 0.5},
        ],
    )
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ModelError):
            GuardPolicy(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [{"min_evidence": 0}, {"suspect_patience": -1},
         {"recover_rho": 2.0}, {"suspect_rho": 0.9, "recover_rho": 0.9}],
    )
    def test_invalid_knobs_raise_clear_value_errors(self, kwargs):
        # PolicyError is both a ModelError (historical contract above)
        # and a SpecError, hence a ValueError with a named-knob message.
        with pytest.raises(ValueError) as exc_info:
            GuardPolicy(**kwargs)
        from repro.errors import SpecError

        assert isinstance(exc_info.value, SpecError)
        message = str(exc_info.value)
        assert any(name in message for name in kwargs)

    def test_hysteresis_boundaries_accepted(self):
        GuardPolicy(revoke_rho=-0.5, suspect_rho=-0.5, recover_rho=0.0)
        GuardPolicy(suspect_rho=0.0, recover_rho=0.999)


class TestStateMachine:
    def _policy(self, **kw):
        base = dict(
            min_evidence=4, suspect_rho=0.3, revoke_rho=-0.5, recover_rho=0.6,
            suspect_patience=2, revoke_patience=2, recover_patience=2,
            min_coverage=0.0,
        )
        base.update(kw)
        return GuardPolicy(**base)

    def test_starts_trusted(self):
        guard = self._policy().build()
        assert guard.state == TRUSTED
        assert guard.state in GUARD_STATES

    def test_no_verdict_before_min_evidence(self):
        guard = self._policy().build()
        _feed(guard, [(float(i), 10.0 - i) for i in range(3)])
        assert guard.state == TRUSTED  # 3 pairs < min_evidence=4

    def test_demotes_on_bad_rho_streak(self):
        guard = self._policy().build()
        _feed(guard, [(float(i), 10.0 - 0.5 * i) for i in range(6)])
        assert guard.state == SUSPECT
        assert guard.transitions[0]["from"] == TRUSTED
        assert guard.transitions[0]["to"] == SUSPECT

    def test_revokes_on_strongly_negative_streak(self):
        guard = self._policy().build()
        _feed(guard, [(float(i), 10.0 - i) for i in range(10)])
        assert guard.state == REVOKED

    def test_revoked_is_terminal(self):
        guard = self._policy().build()
        _feed(guard, [(float(i), 10.0 - i) for i in range(10)])
        # A run of perfectly-agreeing pairs cannot restore trust.
        _feed(guard, [(100.0 + i, 100.0 + i) for i in range(20)], start_index=50)
        assert guard.state == REVOKED

    def test_recovers_from_suspect_on_healthy_streak(self):
        guard = self._policy(revoke_rho=-0.95).build()
        _feed(guard, _MUDDLED)
        assert guard.state == SUSPECT
        # A long agreeing suffix pulls rho back above recover_rho.
        _feed(guard, [(10.0 + i, 10.0 + i) for i in range(30)], start_index=10)
        assert guard.state == TRUSTED
        assert [t["to"] for t in guard.transitions] == [SUSPECT, TRUSTED]

    def test_failed_observations_feed_no_pairs(self):
        guard = self._policy().build()
        ctx = _ctx()
        for i in range(6):
            guard.observe(ctx, _proposal(i, float(i)), math.inf, True)
        assert guard.monitor.n_pairs == 0
        assert guard.monitor.n_failed == 6
        assert guard.state == TRUSTED

    def test_unpredicted_proposals_feed_no_pairs(self):
        guard = self._policy().build()
        _feed(guard, [(None, 1.0)] * 6)
        assert guard.monitor.n_pairs == 0

    def test_metadata_only_written_after_a_transition(self):
        guard = self._policy().build()
        ctx = _feed(guard, [(float(i), float(i)) for i in range(6)])
        assert "guard" not in ctx.trace.metadata  # healthy: no mark
        guard2 = self._policy().build()
        ctx2 = _feed(guard2, [(float(i), 10.0 - i) for i in range(10)])
        assert ctx2.trace.metadata["guard"]["state"] == REVOKED


class TestAudits:
    def _suspect_guard(self, **kw):
        base = dict(
            min_evidence=4, suspect_rho=0.3, revoke_rho=-0.99, recover_rho=0.6,
            suspect_patience=2, revoke_patience=5, recover_patience=10,
            min_coverage=0.0, audit_every=3, regret_limit=2,
        )
        base.update(kw)
        guard = GuardPolicy(**base).build()
        _feed(guard, _MUDDLED)
        assert guard.state == SUSPECT
        return guard

    def test_every_nth_rejection_is_promoted(self):
        guard = self._suspect_guard()
        assert [guard.audit_due() for _ in range(6)] == [
            False, False, True, False, False, True,
        ]

    def test_no_new_audit_while_one_pending(self):
        guard = self._suspect_guard()
        assert [guard.audit_due() for _ in range(3)][-1]
        guard.begin_audit(_proposal(99, 1.0))
        assert not any(guard.audit_due() for _ in range(10))

    def test_audit_regret_revokes(self):
        guard = self._suspect_guard()
        ctx = _ctx(n_evaluations=6)
        best = guard.monitor.best_observed
        for k in range(2):  # regret_limit=2
            guard.begin_audit(_proposal(100 + k, 50.0))
            ctx.trace.n_evaluations += 1
            guard.observe(ctx, _proposal(100 + k, 50.0), best / 2.0, False)
            best = best / 2.0
        assert guard.audit_regrets == 2
        assert guard.state == REVOKED
        assert "regret" in guard.transitions[-1]["reason"]

    def test_audited_loser_is_not_a_regret(self):
        guard = self._suspect_guard()
        ctx = _ctx(n_evaluations=6)
        guard.begin_audit(_proposal(100, 50.0))
        guard.observe(ctx, _proposal(100, 50.0), 1e9, False)
        assert guard.audits == 1 and guard.audit_regrets == 0

    def test_interventions_counter(self):
        guard = self._suspect_guard()
        guard.note_widened_admit()
        guard.note_fallback_proposal()
        guard.note_fallback_proposal()
        assert guard.interventions == 3  # 1 widen + 2 fallbacks + 0 audits


class TestPersistence:
    def test_roundtrip_is_bit_identical(self):
        policy = GuardPolicy(min_evidence=4, min_coverage=0.0)
        guard = policy.build()
        _feed(guard, [(float(i), 10.0 - i) for i in range(10)])
        guard.audit_due()
        guard.note_widened_admit()
        restored = policy.build()
        restored.load_state(guard.state_dict())
        assert restored.state_dict() == guard.state_dict()
        assert restored.state == guard.state

    def test_restored_guard_continues_identically(self):
        policy = GuardPolicy(min_evidence=4, min_coverage=0.0)
        continuous = policy.build()
        pairs = [(float(i), 10.0 - i) for i in range(12)]
        _feed(continuous, pairs)
        resumed = policy.build()
        ctx = _feed(resumed, pairs[:6])
        handoff = policy.build()
        handoff.load_state(resumed.state_dict())
        _feed(handoff, pairs[6:], start_index=6, ctx=ctx)
        assert handoff.state_dict() == continuous.state_dict()

    def test_unknown_state_rejected(self):
        guard = GuardPolicy().build()
        state = guard.state_dict()
        state["state"] = "bogus"
        with pytest.raises(ModelError):
            guard.load_state(state)


class TestDiagnostics:
    def test_metadata_keys(self):
        guard = GuardPolicy().build()
        meta = guard.metadata()
        for key in ("state", "transitions", "n_pairs", "rho", "coverage",
                    "audits", "audit_regrets", "widened_admits",
                    "fallback_proposals"):
            assert key in meta
