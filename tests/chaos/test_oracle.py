"""The crash-consistency oracle: verdict logic and negative proof.

The unit half checks :func:`verify_outcomes` invariant by invariant on
synthetic outcomes.  The integration half is the oracle's own negative
test — the acceptance criterion that a deliberately broken invariant is
*demonstrably caught*: ``break_invariant`` modes that skip resume or
journal replay must fail the matching check, not slip through.
"""

import copy

import pytest

from repro.chaos.oracle import run_oracle, verify_outcomes
from repro.chaos.plan import ChaosPlan


def _outcome() -> dict:
    """A minimal self-consistent workload outcome."""
    return {
        "plan": {"seed": "unit"},
        "chaos": False,
        "search": {
            "trace_digest": "d" * 64,
            "n_records": 14,
            "checkpoint_sha": "c" * 64,
            "resumes": 0,
            "ckpt_lost_records": 0,
            "evaluator_calls": 14,
            "evaluator_faults": {"transient": 2},
        },
        "grid": {
            "results": {"fp0": 1, "fp1": 4},
            "final_cached": 8,
            "final_executed": 0,
            "n_cells": 8,
            "restarts": 0,
            "fs_faults": 0,
            "chaos_kills": 0,
        },
        "service": {
            "state": {"sessions": [["s1", "acme", "closed"]]},
            "evals_spent": {"acme": 3},
            "fs_faults": 0,
            "chaos_kills": 0,
            "journal_failures": 0,
        },
        "orphans": [],
        "live_children": 0,
    }


class TestVerifyOutcomes:
    def test_identical_outcomes_pass_every_invariant(self):
        report = verify_outcomes(_outcome(), _outcome())
        assert report.passed
        assert not report.failures
        assert len(report.checks) == 8

    @pytest.mark.parametrize(
        "mutate, failing",
        [
            (lambda o: o["search"].update(trace_digest="x" * 64),
             "trace-identical"),
            (lambda o: o["search"].update(checkpoint_sha="x" * 64),
             "checkpoint-bytes"),
            (lambda o: o["grid"].update(final_executed=3, final_cached=5),
             "zero-reexecuted-cells"),
            (lambda o: o["grid"]["results"].update(fp0=999),
             "registry-state"),
            (lambda o: o["service"].update(state={}),
             "service-state"),
            (lambda o: o["service"].update(evals_spent={"acme": 99}),
             "quota-conservation"),
            (lambda o: o.update(orphans=["/tmp/x.rewrite.tmp"]),
             "no-orphans"),
            (lambda o: o.update(live_children=2),
             "no-orphans"),
            # Re-executions without any recorded journal damage: the
            # salvage path ran when nothing was rotted.
            (lambda o: o["grid"].update(salvage_executed=2),
             "corruption-bounded-loss"),
            # A search resumed from scratch: more evaluator calls than
            # the checkpoint lost records.
            (lambda o: o["search"].update(evaluator_calls=20,
                                          ckpt_lost_records=3),
             "corruption-bounded-loss"),
        ],
    )
    def test_each_divergence_fails_its_invariant(self, mutate, failing):
        chaotic = _outcome()
        mutate(chaotic)
        report = verify_outcomes(_outcome(), chaotic)
        assert not report.passed
        assert [c.name for c in report.failures] == [failing]
        assert report.failures[0].detail  # a failure always explains itself

    def test_checkpoint_loss_allows_that_many_reevaluations(self):
        chaotic = _outcome()
        chaotic["search"].update(evaluator_calls=17, ckpt_lost_records=3)
        assert verify_outcomes(_outcome(), chaotic).passed

    def test_report_wire_and_summary(self):
        chaotic = _outcome()
        chaotic["search"]["trace_digest"] = "x" * 64
        report = verify_outcomes(_outcome(), chaotic)
        wire = report.to_wire()
        assert wire["passed"] is False
        assert wire["checks"]["trace-identical"]["passed"] is False
        assert wire["checks"]["no-orphans"]["passed"] is True
        assert "FAIL" in report.summary()
        assert "trace-identical: FAIL" in report.summary()

    def test_reference_is_never_mutated(self):
        reference = _outcome()
        snapshot = copy.deepcopy(reference)
        verify_outcomes(reference, _outcome())
        assert reference == snapshot


@pytest.mark.slow
class TestNegativeOracle:
    """Break a recovery mechanism on purpose; the oracle must notice."""

    def test_skipping_resume_is_caught(self, tmp_path):
        plan = ChaosPlan.derive("oracle-neg", intensity=0.5)
        report, _ = run_oracle(plan, root=tmp_path,
                               break_invariant="no-resume")
        assert not report.passed
        assert "zero-reexecuted-cells" in {c.name for c in report.failures}

    def test_skipping_journal_replay_is_caught(self, tmp_path):
        plan = ChaosPlan.derive("oracle-neg", intensity=0.5)
        report, _ = run_oracle(plan, root=tmp_path,
                               break_invariant="skip-replay")
        assert not report.passed
        # With bit rot in the plan the wiped store may read as a legal
        # (if extreme) subset, in which case the loss bound is what
        # convicts it instead of the state comparison.
        assert {"service-state", "corruption-bounded-loss"} & {
            c.name for c in report.failures
        }

    def test_skipping_salvage_recovery_is_caught(self, tmp_path):
        plan = ChaosPlan.derive("oracle-neg", intensity=0.5)
        report, _ = run_oracle(plan, root=tmp_path,
                               break_invariant="skip-salvage-recovery")
        assert not report.passed
        # Rot left unsalvaged surfaces as re-executed cells in the
        # final cache-only verification pass.
        assert "zero-reexecuted-cells" in {c.name for c in report.failures}

    def test_resuming_damaged_checkpoint_from_zero_is_caught(self, tmp_path):
        plan = ChaosPlan.derive("oracle-neg", intensity=0.5)
        report, chaotic = run_oracle(plan, root=tmp_path,
                                     break_invariant="resume-from-zero")
        assert chaotic["search"]["ckpt_corruptions"] > 0
        # A from-scratch resume converges to the same trace and bytes,
        # so only the loss bound can tell it from a real resume.
        assert [c.name for c in report.failures] == ["corruption-bounded-loss"]

    def test_unknown_break_mode_rejected(self, tmp_path):
        plan = ChaosPlan.derive("oracle-neg", intensity=0.5)
        with pytest.raises(ValueError, match="break_invariant"):
            run_oracle(plan, root=tmp_path, break_invariant="nonsense")
