"""Checkpoint/resume: traces, clocks, searches, tuning runs, sessions."""

import json
import os

import pytest

from repro.errors import CheckpointError
from repro.exec.journal import canonical_json, frame_line, unframe_line
from repro.exec.scrub import QUARANTINE_SUFFIX
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
from repro.spec import PoolSpec, TunerSpec
from repro.transfer.session import TransferSession
from repro.tuner import RandomTechnique, TuningRun


def _pool(size):
    """The default spec with a pool of ``size`` configurations."""
    return TunerSpec(pool=PoolSpec(size=size))


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
        path.write_text(frame_line(canonical_json({"version": 99})))
        with pytest.raises(CheckpointError):
            CheckpointManager(path).load()

    def test_torn_only_line_restarts_from_zero(self, tmp_path):
        # A crash mid-way through the first append: nothing was ever
        # acknowledged, so the torn bytes go and the search starts over.
        path = tmp_path / "ck.json"
        path.write_text("{not json")
        with pytest.warns(RuntimeWarning, match="torn final record"):
            assert CheckpointManager(path).load() is None
        assert path.read_bytes() == b""

    def test_algorithm_mismatch_rejected(self, tmp_path, kernel):
        manager = CheckpointManager(tmp_path / "ck.json")
        manager.save(SearchTrace(algorithm="RS"), position=0)
        with pytest.raises(CheckpointError):
            manager.restore(SearchTrace(algorithm="RSb"), kernel.space)


def _lines(path):
    with open(path, "rb") as fh:
        return fh.read().splitlines(keepends=True)


def _flip_line(path, k):
    """Flip one bit inside line ``k`` (0-based); returns its byte offset."""
    lines = _lines(path)
    offset = sum(len(line) for line in lines[:k])
    blob = bytearray(b"".join(lines))
    blob[offset + len(lines[k]) // 2] ^= 0x01
    with open(path, "wb") as fh:
        fh.write(bytes(blob))
    return offset


def _quarantined_offsets(path):
    with open(f"{path}{QUARANTINE_SUFFIX}", "rb") as fh:
        return [unframe_line(line)["offset"] for line in fh]


class TestCheckpointIntegrity:
    """CRC32-framed journal lines, salvage on load, foreign formats."""

    def _manager(self, tmp_path, saves=2):
        manager = CheckpointManager(tmp_path / "ck.json", every=1)
        for position in range(1, saves + 1):
            manager.save(SearchTrace(algorithm="RS"), position=position)
        return manager

    def test_saves_are_crc_framed(self, tmp_path):
        manager = self._manager(tmp_path)
        envelopes = [json.loads(line) for line in _lines(manager.path)]
        assert [set(e) for e in envelopes] == [{"crc", "rec", "v"}] * 2
        assert [e["rec"]["position"] for e in envelopes] == [1, 2]
        assert {e["rec"]["version"] for e in envelopes} == {2}

    def test_saves_append_only_new_records(self, tmp_path, kernel):
        manager = CheckpointManager(tmp_path / "ck.json", every=1)
        trace = SearchTrace(algorithm="RS")
        for position in range(1, 4):
            trace.add(EvaluationRecord(config=kernel.space.config_at(position),
                                       runtime=1.0, elapsed=float(position)))
            manager.save(trace, position=position)
        recs = [json.loads(line)["rec"] for line in _lines(manager.path)]
        assert [(r["start"], len(r["records"])) for r in recs] == [
            (0, 1), (1, 1), (2, 1)
        ]
        assert len(manager.load().trace["records"]) == 3
        # Nothing new and the same state: the save appends nothing.
        before = _lines(manager.path)
        manager.save(trace, position=3)
        assert _lines(manager.path) == before
        assert os.listdir(tmp_path) == ["ck.json"]  # no .bak, no .tmp

    def test_whole_document_checkpoint_rejected(self, tmp_path):
        # A framed version-1 document, as whole-document checkpoints
        # were written: foreign input, neither resumed nor salvaged.
        doc = {"version": 1, "algorithm": "RS", "position": 4, "trace": {},
               "clock": {}, "reliability": None, "extra": {}}
        blob = frame_line(canonical_json(doc))
        path = tmp_path / "ck.json"
        path.write_text(blob)
        with pytest.raises(CheckpointError, match="format version 1"):
            CheckpointManager(path).load()
        with pytest.raises(CheckpointError, match="format version 1"):
            CheckpointManager(path).restore(SearchTrace(algorithm="RS"),
                                            space=None)
        with pytest.raises(CheckpointError, match="format version 1"):
            load_traces(path, space=None)
        assert path.read_text() == blob
        assert not os.path.exists(f"{path}{QUARANTINE_SUFFIX}")
        # Without its envelope the one-line document is no checkpoint at
        # all: an unterminated unframed line, dropped as a torn tail.
        path.write_text(json.dumps(doc))
        with pytest.warns(RuntimeWarning, match="torn final record"):
            assert CheckpointManager(path).load() is None
        path.write_text(json.dumps(doc))
        with pytest.warns(RuntimeWarning, match="torn final record"):
            assert CheckpointManager(path).restore(
                SearchTrace(algorithm="RS"), space=None) == (0, {})
        path.write_text(json.dumps(doc))
        with pytest.warns(RuntimeWarning, match="torn final record"):
            assert load_traces(path, space=None) == {}

    def test_unframed_line_is_damage(self, tmp_path):
        # A save without its CRC32 envelope is quarantined mid-file and
        # dropped as a torn tail, like any other damaged line.  (These
        # saves add no records, so the lines after a damaged one still
        # chain.)
        manager = self._manager(tmp_path, saves=3)
        lines = _lines(manager.path)
        bare = [canonical_json(json.loads(line)["rec"]).encode()
                for line in lines]
        with open(manager.path, "wb") as fh:
            fh.write(lines[0] + lines[1] + bare[2])  # unterminated
        with pytest.warns(RuntimeWarning, match="torn final record"):
            assert manager.load().position == 2
        assert _lines(manager.path) == lines[:2]
        with open(manager.path, "wb") as fh:
            fh.write(lines[0] + bare[1] + b"\n" + lines[2])
        with pytest.warns(RuntimeWarning, match="quarantined 1 damaged"):
            assert manager.load().position == 3
        assert _quarantined_offsets(manager.path) == [len(lines[0])]
        assert _lines(manager.path) == [lines[0], lines[2]]

    def test_bitflip_resumes_from_last_clean_save(self, tmp_path):
        manager = self._manager(tmp_path)
        offset = _flip_line(manager.path, 1)
        with pytest.warns(RuntimeWarning, match="quarantined 1 damaged"):
            snapshot = manager.load()
        assert snapshot.position == 1
        assert _quarantined_offsets(manager.path) == [offset]
        assert len(_lines(manager.path)) == 1  # the clean prefix, in place

    def test_damaged_line_quarantines_every_later_line(self, tmp_path,
                                                       kernel, make_target):
        def run(path, nmax=12):
            return random_search(
                make_target(), SharedStream(kernel.space, seed="ck"),
                nmax=nmax, checkpoint=CheckpointManager(path, every=2),
            )

        run(tmp_path / "clean.json")
        undamaged = _lines(tmp_path / "clean.json")
        path = tmp_path / "rs.json"
        run(path)
        n, k = len(undamaged), 3
        assert n > k + 1
        offsets = [sum(len(line) for line in undamaged[:i]) for i in range(n)]
        before_k = json.loads(undamaged[k - 1])["rec"]
        _flip_line(path, k)
        trace = SearchTrace(algorithm="RS")
        with pytest.warns(RuntimeWarning, match=f"quarantined {n - k} "):
            position, _extra = CheckpointManager(path).restore(
                trace, kernel.space
            )
        assert position == before_k["position"]
        assert trace.n_evaluations == before_k["start"] + len(
            before_k["records"]
        )
        assert _quarantined_offsets(path) == offsets[k:]
        assert _lines(path) == undamaged[:k]
        # Resuming re-runs only what the damage cost and lands on the
        # undamaged run's bytes.
        run(path)
        assert _lines(path) == undamaged

    def test_save_after_salvage_extends_clean_prefix(self, tmp_path):
        manager = self._manager(tmp_path)
        _flip_line(manager.path, 1)
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert manager.load().position == 1
        manager.save(SearchTrace(algorithm="RS"), position=3)
        assert manager.load().position == 3
        _flip_line(manager.path, 1)
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert CheckpointManager(manager.path).load().position == 1

    def test_torn_final_line_is_dropped(self, tmp_path):
        manager = self._manager(tmp_path)
        lines = _lines(manager.path)
        with open(manager.path, "wb") as fh:
            fh.write(lines[0] + lines[1][: len(lines[1]) // 2])
        with pytest.warns(RuntimeWarning, match="torn final record"):
            assert manager.load().position == 1
        assert _lines(manager.path) == lines[:1]


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
            nmax=10, spec=_pool(200),
        )
        manager = CheckpointManager(tmp_path / "rsp.json", every=3)
        pruned_search(
            make_target(), SharedStream(kernel.space, seed="ck"), surrogate,
            nmax=5, spec=_pool(200), checkpoint=manager,
        )
        resumed = pruned_search(
            make_target(), SharedStream(kernel.space, seed="ck"), surrogate,
            nmax=10, spec=_pool(200), checkpoint=manager,
        )
        assert _trace_signature(resumed) == _trace_signature(reference)
        assert resumed.metadata["cutoff"] == reference.metadata["cutoff"]
        assert resumed.metadata["stream_positions"] == reference.metadata["stream_positions"]

    def test_rsb_resume_is_bit_identical(self, tmp_path, kernel, surrogate,
                                         make_target):
        reference = biased_search(
            make_target(), kernel.space, surrogate, nmax=16, spec=_pool(300)
        )
        manager = CheckpointManager(tmp_path / "rsb.json", every=4)
        biased_search(
            make_target(), kernel.space, surrogate, nmax=8, spec=_pool(300),
            checkpoint=manager,
        )
        resumed = biased_search(
            make_target(), kernel.space, surrogate, nmax=16, spec=_pool(300),
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
            make_target(), kernel.space, surrogate, nmax=16, spec=_pool(300)
        )
        manager = CheckpointManager(tmp_path / "rspb.json", every=4)
        hybrid_search(
            make_target(), kernel.space, surrogate, nmax=8, spec=_pool(300),
            checkpoint=manager,
        )
        resumed = hybrid_search(
            make_target(), kernel.space, surrogate, nmax=16, spec=_pool(300),
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
            kernel, WESTMERE, SANDYBRIDGE, nmax=12, spec=_pool(200),
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

    def test_damaged_session_line_costs_one_trace(self, tmp_path, kernel):
        def session(variants):
            return TransferSession(kernel, WESTMERE, SANDYBRIDGE, nmax=12,
                                   spec=_pool(200), variants=variants)

        reference = session(("RSb", "RSp")).run()
        path = tmp_path / "session.json"
        # Interrupted after the source phase, the RS baseline and one
        # variant were saved, one line each; then the RS line rots.
        session(("RSb",)).run(checkpoint_path=path)
        names = [json.loads(line)["rec"]["name"] for line in _lines(path)]
        assert names == ["RS(source)", "RS", "RSb"]
        _flip_line(path, 1)
        with pytest.warns(RuntimeWarning, match="quarantined 1 damaged"):
            assert sorted(load_traces(path, kernel.space)) == [
                "RS(source)", "RSb"
            ]
        resumed = session(("RSb", "RSp")).run(checkpoint_path=path)
        assert _trace_signature(resumed.source_trace) == _trace_signature(
            reference.source_trace
        )
        assert sorted(resumed.traces) == sorted(reference.traces)
        for name, trace in reference.traces.items():
            assert _trace_signature(resumed.traces[name]) == _trace_signature(
                trace
            )
