"""Checkpoint/resume: traces, clocks, searches, tuning runs, sessions."""

import json
import os

import pytest

from repro.errors import CheckpointError
from repro.machines import SANDYBRIDGE, WESTMERE
from repro.miniapps import MiniappEvaluator, make_hpl
from repro.orio.evaluator import OrioEvaluator
from repro.perf.simclock import SimClock
from repro.reliability import (
    CheckpointManager,
    FaultSpec,
    FaultyEvaluator,
    ResilientEvaluator,
    RetryPolicy,
    load_traces,
    save_traces,
    trace_from_dict,
    trace_to_dict,
)
from repro.search.biasing import biased_search, hybrid_search
from repro.search.model_free import (
    model_free_biased_search,
    model_free_pruned_search,
)
from repro.search.pruning import pruned_search
from repro.search.random_search import random_search
from repro.search.result import EvaluationRecord, SearchTrace
from repro.search.stream import SharedStream
from repro.transfer.session import TransferSession
from repro.tuner import RandomTechnique, TuningRun


def _trace_signature(trace):
    return [
        (r.config.index, r.runtime, r.elapsed, r.skipped_before, r.failed, r.censored)
        for r in trace.records
    ]


class TestTraceSerialization:
    def test_roundtrip_with_failures(self, kernel):
        space = kernel.space
        trace = SearchTrace(algorithm="RS")
        trace.add(EvaluationRecord(config=space.config_at(3), runtime=1.5, elapsed=2.0))
        trace.add(
            EvaluationRecord(
                config=space.config_at(7), runtime=float("inf"), elapsed=3.0,
                failed=True,
            )
        )
        trace.add(
            EvaluationRecord(
                config=space.config_at(9), runtime=120.0, elapsed=5.0,
                skipped_before=2, failed=True, censored=True,
            )
        )
        trace.exhausted_budget = True
        trace.metadata["cutoff"] = 1.25
        trace.metadata["unserializable"] = object()  # silently dropped
        rebuilt = trace_from_dict(space, trace_to_dict(trace))
        assert _trace_signature(rebuilt) == _trace_signature(trace)
        assert rebuilt.exhausted_budget
        assert rebuilt.total_elapsed == trace.total_elapsed
        assert rebuilt.metadata["cutoff"] == 1.25
        assert "unserializable" not in rebuilt.metadata

    def test_clock_state_roundtrip(self):
        clock = SimClock(budget_seconds=50.0)
        clock.advance(12.5)
        fresh = SimClock.from_state(clock.state_dict())
        assert fresh.now == 12.5
        assert fresh.remaining == 37.5


class TestCheckpointManager:
    def test_missing_file_is_a_noop(self, tmp_path, kernel):
        manager = CheckpointManager(tmp_path / "none.json")
        assert not manager.exists()
        assert manager.load() is None
        trace = SearchTrace(algorithm="RS")
        assert manager.restore(trace, kernel.space) == (0, {})
        assert trace.records == []

    def test_save_load_clear(self, tmp_path, kernel):
        manager = CheckpointManager(tmp_path / "ck.json")
        trace = SearchTrace(algorithm="RS")
        trace.add(
            EvaluationRecord(
                config=kernel.space.config_at(1), runtime=float("inf"),
                elapsed=1.0, failed=True,
            )
        )
        manager.save(trace, position=1, extra={"skipped": 0})
        # Infinity survives strict JSON: encoded as a string sentinel.
        raw = (tmp_path / "ck.json").read_text()
        assert "Infinity" in raw
        json.loads(raw)  # valid strict JSON
        snapshot = manager.load()
        assert snapshot.position == 1
        assert snapshot.trace["records"][0]["runtime"] == float("inf")
        manager.clear()
        assert not manager.exists()

    def test_maybe_save_respects_interval(self, tmp_path, kernel):
        manager = CheckpointManager(tmp_path / "ck.json", every=10)
        trace = SearchTrace(algorithm="RS")
        assert not manager.maybe_save(trace, position=5)
        assert manager.maybe_save(trace, position=10)
        assert not manager.maybe_save(trace, position=15)
        assert manager.maybe_save(trace, position=20)

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text(json.dumps({"version": 99}))
        with pytest.raises(CheckpointError):
            CheckpointManager(path).load()

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text("{not json")
        with pytest.raises(CheckpointError):
            CheckpointManager(path).load()

    def test_algorithm_mismatch_rejected(self, tmp_path, kernel):
        manager = CheckpointManager(tmp_path / "ck.json")
        manager.save(SearchTrace(algorithm="RS"), position=0)
        with pytest.raises(CheckpointError):
            manager.restore(SearchTrace(algorithm="RSb"), kernel.space)


class TestCheckpointIntegrity:
    """CRC32 framing, the ``.bak`` fallback, and bit-flip resilience."""

    def _manager(self, tmp_path):
        manager = CheckpointManager(tmp_path / "ck.json", every=1)
        manager.save(SearchTrace(algorithm="RS"), position=1)
        manager.save(SearchTrace(algorithm="RS"), position=2)  # rotates .bak
        return manager

    def _flip(self, path):
        blob = bytearray(open(path, "rb").read())
        blob[len(blob) // 2] ^= 0x20
        open(path, "wb").write(bytes(blob))

    def test_saves_are_crc_framed(self, tmp_path):
        manager = self._manager(tmp_path)
        envelope = json.loads(open(manager.path).read())
        assert set(envelope) == {"crc", "rec", "v"}
        assert envelope["rec"]["position"] == 2

    def test_legacy_unframed_checkpoint_loads(self, tmp_path):
        manager = self._manager(tmp_path)
        envelope = json.loads(open(manager.path).read())
        # Strip the envelope: a pre-framing checkpoint document.
        (tmp_path / "ck.json").write_text(json.dumps(envelope["rec"]))
        assert manager.load().position == 2

    def test_bitflip_falls_back_to_backup(self, tmp_path):
        manager = self._manager(tmp_path)
        self._flip(manager.path)
        with pytest.warns(RuntimeWarning, match="resuming from backup"):
            snapshot = manager.load()
        # The .bak is the previous complete snapshot: exact, just older.
        assert snapshot.position == 1

    def test_both_copies_damaged_is_one_combined_error(self, tmp_path):
        manager = self._manager(tmp_path)
        self._flip(manager.path)
        self._flip(f"{manager.path}.bak")
        with pytest.raises(CheckpointError, match="both failed") as excinfo:
            manager.load()
        err = excinfo.value
        assert err.path == manager.path and err.offset is not None
        assert err.backup_path == f"{manager.path}.bak"
        assert err.backup_offset is not None
        assert ".bak" in str(err)

    def test_corrupt_primary_never_clobbers_good_backup(self, tmp_path):
        manager = self._manager(tmp_path)
        self._flip(manager.path)
        # The next save must not rotate the damaged primary over the
        # last good .bak — otherwise a second flip strands the run.
        manager.save(SearchTrace(algorithm="RS"), position=3)
        assert manager.load().position == 3
        self._flip(manager.path)
        with pytest.warns(RuntimeWarning, match="resuming from backup"):
            # .bak still holds the position-1 snapshot, not rot.
            assert manager.load().position == 1

    def test_crash_after_rotation_resumes_from_backup(self, tmp_path):
        manager = self._manager(tmp_path)
        # A crash after the primary moved to .bak and before the new
        # primary landed leaves only the backup: the resume must use
        # it, not silently restart from zero.
        os.replace(manager.path, f"{manager.path}.bak")
        with pytest.warns(RuntimeWarning, match="resuming from backup"):
            assert manager.load().position == 2

    def test_session_crash_after_rotation_resumes_from_backup(
        self, tmp_path, kernel
    ):
        path = tmp_path / "session.json"
        trace = SearchTrace(algorithm="RS")
        trace.add(EvaluationRecord(config=kernel.space.config_at(3),
                                   runtime=1.5, elapsed=2.0))
        save_traces(path, {"RS(source)": trace})
        save_traces(path, {"RS(source)": trace, "RS": trace})
        os.replace(path, f"{path}.bak")
        with pytest.warns(RuntimeWarning, match="resuming from backup"):
            traces = load_traces(path, kernel.space)
        assert sorted(traces) == ["RS", "RS(source)"]
        assert _trace_signature(traces["RS"]) == _trace_signature(trace)


class TestSearchResume:
    def test_rs_resume_is_bit_identical(self, tmp_path, kernel, make_target):
        reference = random_search(
            make_target(), SharedStream(kernel.space, seed="ck"), nmax=20
        )
        manager = CheckpointManager(tmp_path / "rs.json", every=5)
        random_search(
            make_target(), SharedStream(kernel.space, seed="ck"), nmax=10,
            checkpoint=manager,
        )
        resumed = random_search(
            make_target(), SharedStream(kernel.space, seed="ck"), nmax=20,
            checkpoint=manager,
        )
        assert _trace_signature(resumed) == _trace_signature(reference)
        assert resumed.best().config.index == reference.best().config.index
        assert resumed.total_elapsed == pytest.approx(reference.total_elapsed)

    def test_rs_resume_under_faults(self, tmp_path, kernel):
        def evaluator():
            return ResilientEvaluator(
                FaultyEvaluator(
                    OrioEvaluator(kernel, SANDYBRIDGE, clock=SimClock()),
                    FaultSpec.uniform(0.15, seed="resume"),
                ),
                retry=RetryPolicy(max_retries=1),
            )

        reference = random_search(
            evaluator(), SharedStream(kernel.space, seed="ck"), nmax=24
        )
        assert reference.n_failures > 0  # the scenario actually exercises faults
        manager = CheckpointManager(tmp_path / "rs.json", every=4)
        random_search(
            evaluator(), SharedStream(kernel.space, seed="ck"), nmax=12,
            checkpoint=manager,
        )
        resumed = random_search(
            evaluator(), SharedStream(kernel.space, seed="ck"), nmax=24,
            checkpoint=manager,
        )
        assert _trace_signature(resumed) == _trace_signature(reference)
        assert resumed.best().config.index == reference.best().config.index

    def test_rsp_resume_is_bit_identical(self, tmp_path, kernel, surrogate,
                                         make_target):
        reference = pruned_search(
            make_target(), SharedStream(kernel.space, seed="ck"), surrogate,
            nmax=10, pool_size=200,
        )
        manager = CheckpointManager(tmp_path / "rsp.json", every=3)
        pruned_search(
            make_target(), SharedStream(kernel.space, seed="ck"), surrogate,
            nmax=5, pool_size=200, checkpoint=manager,
        )
        resumed = pruned_search(
            make_target(), SharedStream(kernel.space, seed="ck"), surrogate,
            nmax=10, pool_size=200, checkpoint=manager,
        )
        assert _trace_signature(resumed) == _trace_signature(reference)
        assert resumed.metadata["cutoff"] == reference.metadata["cutoff"]
        assert resumed.metadata["stream_positions"] == reference.metadata["stream_positions"]

    def test_rsb_resume_is_bit_identical(self, tmp_path, kernel, surrogate,
                                         make_target):
        reference = biased_search(
            make_target(), kernel.space, surrogate, nmax=16, pool_size=300
        )
        manager = CheckpointManager(tmp_path / "rsb.json", every=4)
        biased_search(
            make_target(), kernel.space, surrogate, nmax=8, pool_size=300,
            checkpoint=manager,
        )
        resumed = biased_search(
            make_target(), kernel.space, surrogate, nmax=16, pool_size=300,
            checkpoint=manager,
        )
        assert _trace_signature(resumed) == _trace_signature(reference)
        assert resumed.best().config.index == reference.best().config.index
        assert resumed.total_elapsed == pytest.approx(reference.total_elapsed)

    def test_rspf_resume_is_bit_identical(self, tmp_path, training, make_target):
        reference = model_free_pruned_search(make_target(), training, nmax=40)
        manager = CheckpointManager(tmp_path / "rspf.json", every=3)
        model_free_pruned_search(
            make_target(), training, nmax=8, checkpoint=manager
        )
        resumed = model_free_pruned_search(
            make_target(), training, nmax=40, checkpoint=manager
        )
        assert _trace_signature(resumed) == _trace_signature(reference)
        assert resumed.best().config.index == reference.best().config.index
        assert resumed.total_elapsed == pytest.approx(reference.total_elapsed)

    def test_rsbf_resume_is_bit_identical(self, tmp_path, training, make_target):
        reference = model_free_biased_search(make_target(), training, nmax=30)
        manager = CheckpointManager(tmp_path / "rsbf.json", every=3)
        model_free_biased_search(
            make_target(), training, nmax=10, checkpoint=manager
        )
        resumed = model_free_biased_search(
            make_target(), training, nmax=30, checkpoint=manager
        )
        assert _trace_signature(resumed) == _trace_signature(reference)
        assert resumed.best().config.index == reference.best().config.index
        assert resumed.total_elapsed == pytest.approx(reference.total_elapsed)

    def test_hybrid_resume_is_bit_identical(self, tmp_path, kernel, surrogate,
                                            make_target):
        reference = hybrid_search(
            make_target(), kernel.space, surrogate, nmax=16, pool_size=300
        )
        manager = CheckpointManager(tmp_path / "rspb.json", every=4)
        hybrid_search(
            make_target(), kernel.space, surrogate, nmax=8, pool_size=300,
            checkpoint=manager,
        )
        resumed = hybrid_search(
            make_target(), kernel.space, surrogate, nmax=16, pool_size=300,
            checkpoint=manager,
        )
        assert _trace_signature(resumed) == _trace_signature(reference)
        assert resumed.metadata["cutoff"] == reference.metadata["cutoff"]
        assert resumed.metadata["pool_size"] == reference.metadata["pool_size"]
        assert resumed.total_elapsed == pytest.approx(reference.total_elapsed)


class TestTuningRunResume:
    def test_resume_continues_without_remeasuring(self, tmp_path):
        manager = CheckpointManager(tmp_path / "run.json", every=2)
        first = MiniappEvaluator(make_hpl(), SANDYBRIDGE, clock=SimClock())
        trace1 = TuningRun(first, RandomTechnique(), nmax=5).run(checkpoint=manager)
        assert first.n_evaluations == 5
        second = MiniappEvaluator(make_hpl(), SANDYBRIDGE, clock=SimClock())
        run2 = TuningRun(second, RandomTechnique(), nmax=10)
        trace2 = run2.run(checkpoint=manager)
        # Only the 5 new measurements hit the evaluator; the restored
        # database replays the old ones as cache hits + feedback.
        assert second.n_evaluations == 5
        assert trace2.n_evaluations == 10
        assert _trace_signature(trace2)[:5] == _trace_signature(trace1)
        assert run2.database.n_distinct == 10

    def test_completed_run_restores_verbatim(self, tmp_path):
        manager = CheckpointManager(tmp_path / "run.json")
        first = MiniappEvaluator(make_hpl(), SANDYBRIDGE, clock=SimClock())
        trace1 = TuningRun(first, RandomTechnique(), nmax=8).run(checkpoint=manager)
        second = MiniappEvaluator(make_hpl(), SANDYBRIDGE, clock=SimClock())
        trace2 = TuningRun(second, RandomTechnique(), nmax=8).run(checkpoint=manager)
        assert second.n_evaluations == 0  # nothing re-measured
        assert _trace_signature(trace2) == _trace_signature(trace1)
        assert second.clock.now == pytest.approx(first.clock.now)


class TestSessionResume:
    def test_completed_phases_are_skipped(self, tmp_path, kernel):
        calls = {"n": 0}

        class Counting:
            def __init__(self, inner):
                self.inner = inner

            @property
            def clock(self):
                return self.inner.clock

            def __getattr__(self, name):
                return getattr(self.inner, name)

            def measure(self, config):
                return self.inner.measure(config)

            def evaluate(self, config):
                calls["n"] += 1
                return self.inner.evaluate(config)

        session = TransferSession(
            kernel, WESTMERE, SANDYBRIDGE, nmax=12, pool_size=200,
            variants=("RSb",), evaluator_wrapper=Counting,
        )
        path = tmp_path / "session.json"
        outcome1 = session.run(checkpoint_path=path)
        first_calls = calls["n"]
        assert first_calls == 3 * 12  # source RS + target RS + RSb
        outcome2 = session.run(checkpoint_path=path)
        assert calls["n"] == first_calls  # everything came from the checkpoint
        for name in outcome1.traces:
            assert _trace_signature(outcome2.traces[name]) == _trace_signature(
                outcome1.traces[name]
            )
            assert name in outcome2.reports or name == "RS"

    def test_damaged_session_checkpoint_resumes_from_backup(self, tmp_path,
                                                            kernel):
        def session(variants):
            return TransferSession(kernel, WESTMERE, SANDYBRIDGE, nmax=12,
                                   pool_size=200, variants=variants)

        reference = session(("RSb", "RSp")).run()
        path = tmp_path / "session.json"
        # Interrupted after the source phase, the RS baseline and one
        # variant were saved; then one byte of the checkpoint rots.
        session(("RSb",)).run(checkpoint_path=path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x20
        path.write_bytes(bytes(blob))
        with pytest.warns(RuntimeWarning, match="resuming from backup"):
            resumed = session(("RSb", "RSp")).run(checkpoint_path=path)
        assert _trace_signature(resumed.source_trace) == _trace_signature(
            reference.source_trace
        )
        assert sorted(resumed.traces) == sorted(reference.traces)
        for name, trace in reference.traces.items():
            assert _trace_signature(resumed.traces[name]) == _trace_signature(
                trace
            )
