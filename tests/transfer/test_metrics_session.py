"""Tests for speedup metrics and the transfer session."""

import dataclasses

import pytest

from repro.errors import SearchError
from repro.kernels import get_kernel
from repro.machines import get_machine
from repro.search.result import EvaluationRecord, SearchTrace
from repro.searchspace import IntegerParameter, SearchSpace
from repro.spec import PoolSpec, TunerSpec
from repro.transfer import TransferSession, speedups
from repro.transfer.guard import GuardPolicy


def trace_from(space, algorithm, points):
    """points: list of (config index, runtime, elapsed)."""
    t = SearchTrace(algorithm)
    for idx, runtime, elapsed in points:
        t.add(EvaluationRecord(space.config_at(idx), runtime, elapsed))
    return t


@pytest.fixture
def space():
    return SearchSpace([IntegerParameter("a", 0, 99)], name="m")


class TestSpeedups:
    def test_paper_defining_example(self, space):
        """RS: best 5s found at 100s.  RSb: reaches 5s at 50s, best 3s
        at 80s => Prf 1.67X, Srh 2X."""
        rs = trace_from(space, "RS", [(0, 8.0, 10.0), (1, 5.0, 100.0)])
        rsb = trace_from(space, "RSb", [(2, 5.0, 50.0), (3, 3.0, 80.0)])
        rep = speedups(rs, rsb)
        assert rep.performance == pytest.approx(5.0 / 3.0)
        assert rep.search_time == pytest.approx(2.0)
        assert rep.successful

    def test_never_matching_gets_zero(self, space):
        rs = trace_from(space, "RS", [(0, 5.0, 100.0)])
        bad = trace_from(space, "RSb", [(1, 9.0, 10.0)])
        rep = speedups(rs, bad)
        assert rep.search_time == 0.0
        assert rep.performance == pytest.approx(5.0 / 9.0)
        assert not rep.successful

    def test_equal_best_is_performance_one(self, space):
        rs = trace_from(space, "RS", [(0, 5.0, 100.0)])
        same = trace_from(space, "RSb", [(0, 5.0, 25.0)])
        rep = speedups(rs, same)
        assert rep.performance == pytest.approx(1.0)
        assert rep.search_time == pytest.approx(4.0)
        assert rep.successful

    def test_empty_variant_total_failure(self, space):
        rs = trace_from(space, "RS", [(0, 5.0, 100.0)])
        rep = speedups(rs, SearchTrace("RSb"))
        assert rep.performance == 0.0
        assert rep.search_time == 0.0

    def test_empty_rs_rejected(self, space):
        with pytest.raises(SearchError):
            speedups(SearchTrace("RS"), trace_from(space, "RSb", [(0, 1.0, 1.0)]))

    def test_row_format(self, space):
        rs = trace_from(space, "RS", [(0, 5.0, 100.0)])
        rep = speedups(rs, trace_from(space, "RSb", [(1, 4.0, 10.0)]))
        row = rep.row()
        assert row[0] == "RSb" and row[3] is True


class TestTransferSession:
    @pytest.fixture(scope="class")
    def outcome(self):
        session = TransferSession(
            kernel=get_kernel("lu", n=256),
            source=get_machine("westmere"),
            target=get_machine("sandybridge"),
            nmax=40,
            spec=TunerSpec(pool=PoolSpec(size=1500)),
            seed="session-test",
        )
        return session.run()

    def test_all_variants_present(self, outcome):
        assert set(outcome.traces) == {"RS", "RSp", "RSb", "RSpf", "RSbf"}
        assert set(outcome.reports) == {"RSp", "RSb", "RSpf", "RSbf"}

    def test_crn_source_and_target_rs_share_configs(self, outcome):
        src = [r.config.index for r in outcome.source_trace.records]
        tgt = [r.config.index for r in outcome.rs.records]
        assert src == tgt  # common random numbers, Section IV-D

    def test_correlation_panel(self, outcome):
        rho_p, rho_s = outcome.correlation()
        assert 0.5 < rho_p <= 1.0  # Intel pair: strongly correlated
        assert 0.5 < rho_s <= 1.0

    def test_model_free_variants_capped_at_one(self, outcome):
        # RSpf/RSbf are restricted to Ta: no performance speedups.
        assert outcome.report("RSbf").performance <= 1.0 + 1e-9
        assert outcome.report("RSpf").performance <= 1.0 + 1e-9

    def test_biasing_beats_pruning(self, outcome):
        # The paper's headline: RSb >= RSp in search-time speedup.
        assert (
            outcome.report("RSb").search_time
            >= 0.5 * outcome.report("RSp").search_time
        )

    def test_summary_table_renders(self, outcome):
        text = outcome.summary_table()
        assert "RSb" in text and "Prf.Imp" in text

    def test_deterministic_rerun(self):
        kw = dict(
            kernel=get_kernel("lu", n=256),
            source=get_machine("westmere"),
            target=get_machine("sandybridge"),
            nmax=15,
            spec=TunerSpec(pool=PoolSpec(size=500)),
            seed="determinism",
            variants=("RSb",),
        )
        a = TransferSession(**kw).run()
        b = TransferSession(**kw).run()
        assert a.report("RSb").performance == b.report("RSb").performance
        assert a.report("RSb").search_time == b.report("RSb").search_time


class TestGuardedSession:
    def test_guarded_session_runs_and_matches_unguarded_on_faithful(self):
        kw = dict(
            kernel=get_kernel("lu", n=256),
            source=get_machine("westmere"),
            target=get_machine("sandybridge"),
            nmax=40,
            seed="session-guard",
            variants=("RSp", "RSb"),
        )
        spec = TunerSpec(pool=PoolSpec(size=1500))
        bare = TransferSession(**kw, spec=spec).run()
        guarded = TransferSession(
            **kw, spec=dataclasses.replace(spec, guard=GuardPolicy())
        ).run()
        # A faithful Intel->Intel source at this scale keeps the guard
        # TRUSTED for RSp, so the guarded trace is bit-identical.
        assert [r.config.index for r in guarded.traces["RSp"].records] == [
            r.config.index for r in bare.traces["RSp"].records
        ]
        assert guarded.report("RSp").performance == bare.report("RSp").performance
        # The shared-stream RS baseline is never touched by the guard.
        assert [r.config.index for r in guarded.rs.records] == [
            r.config.index for r in bare.rs.records
        ]
