"""Tests for the journaled run registry."""

import json

import pytest

from repro.errors import CheckpointError, EvaluationFailure, RegistryCorruptionError
from repro.exec import RunRegistry
from repro.exec.journal import canonical_json, frame_obj, unframe_obj


@pytest.fixture
def registry(tmp_path):
    return RunRegistry(tmp_path / "journal.jsonl")


class TestRoundTrip:
    def test_empty_registry_loads_empty(self, registry):
        state = registry.load()
        assert state.completed == {} and state.failed == {}
        assert not state.dropped_partial

    def test_completed_cells_rematerialize_bitwise(self, registry):
        payloads = {"a" * 32: (1.25, "x", [1, 2]), "b" * 32: {"nested": (3,)}}
        for fp, value in payloads.items():
            registry.mark_completed(fp, "exp", value, key=["k", fp[:2]])
        state = registry.load()
        assert set(state.completed) == set(payloads)
        for fp, value in payloads.items():
            assert state.completed[fp].result() == value
        assert state.n_records == 2

    def test_failed_then_completed_counts_as_completed(self, registry):
        fp = "c" * 32
        registry.mark_failed(fp, "exp", error="WorkerCrashError", message="died")
        registry.mark_completed(fp, "exp", 42)
        state = registry.load()
        assert state.completed[fp].result() == 42
        assert fp not in state.failed

    def test_failure_after_completion_does_not_uncomplete(self, registry):
        fp = "d" * 32
        registry.mark_completed(fp, "exp", 42)
        registry.mark_failed(fp, "exp", error="X", message="late")
        state = registry.load()
        assert state.completed[fp].result() == 42
        assert fp not in state.failed

    def test_attempts_and_metadata_round_trip(self, registry):
        record = registry.mark_completed("e" * 32, "exp", 1, attempts=3,
                                         meta={"kind": "retry"})
        assert record.attempts == 3
        loaded = registry.load().completed["e" * 32]
        assert loaded.attempts == 3
        assert loaded.meta == {"kind": "retry"}
        assert loaded.experiment == "exp"


class TestCorruption:
    def test_torn_final_line_is_dropped_with_warning(self, registry):
        registry.mark_completed("a" * 32, "exp", 1)
        registry.mark_completed("b" * 32, "exp", 2)
        with open(registry.path, "ab") as fh:
            fh.write(b'{"v":1,"fp":"cccc","status":"comp')  # torn mid-append
        with pytest.warns(RuntimeWarning, match="torn final record"):
            state = registry.load()
        assert set(state.completed) == {"a" * 32, "b" * 32}
        assert state.dropped_partial
        # The torn tail was truncated: the journal is whole again and a
        # later append cannot glue onto the partial line.
        state2 = registry.load()
        assert not state2.dropped_partial
        registry.mark_completed("c" * 32, "exp", 3)
        assert set(registry.load().completed) == {"a" * 32, "b" * 32, "c" * 32}

    def _damage_mid_file(self, registry):
        """Append garbage mid-journal; return its byte offset."""
        registry.mark_completed("a" * 32, "exp", 1)
        offset_of_garbage = len(open(registry.path, "rb").read())
        with open(registry.path, "ab") as fh:
            fh.write(b"not json at all\n")
        registry.mark_completed("b" * 32, "exp", 2)
        return offset_of_garbage

    def test_mid_file_garbage_is_salvaged_by_default(self, registry):
        offset = self._damage_mid_file(registry)
        with pytest.warns(RuntimeWarning, match="quarantined 1 damaged"):
            state = registry.load()
        # Both intact cells survived; only the garbage line is gone.
        assert set(state.completed) == {"a" * 32, "b" * 32}
        assert state.salvaged_records == 1
        assert state.salvage.quarantined[0].offset == offset
        # The sidecar preserves the damaged bytes with provenance, and
        # the rewritten journal reloads silently.
        sidecar = json.loads(
            open(f"{registry.path}.quarantine", "rb").readline())
        assert sidecar["offset"] == offset
        assert registry.load().salvaged_records == 0

    def test_payload_checksum_mismatch_is_corruption(self, registry):
        registry.mark_completed("a" * 32, "exp", {"value": 1})
        registry.mark_completed("b" * 32, "exp", 2)
        lines = open(registry.path, "rb").read().splitlines(keepends=True)
        # Corrupt the pickled payload *behind* a valid CRC envelope: the
        # deep SHA-256 check must catch what the frame cannot.
        record = unframe_obj(json.loads(lines[0]))
        record["sha"] = "0" * 64
        lines[0] = (frame_obj(record) + "\n").encode()
        open(registry.path, "wb").write(b"".join(lines))
        with pytest.warns(RuntimeWarning, match="quarantined 1 damaged"):
            state = registry.load()
        assert set(state.completed) == {"b" * 32}
        (damaged,) = state.salvage.quarantined
        assert damaged.offset == 0 and "checksum" in damaged.reason

    def test_unknown_record_version_is_corruption(self, registry):
        with open(registry.path, "w") as fh:
            fh.write(frame_obj({"v": 99, "fp": "aaaa", "status": "completed"}) + "\n")
            fh.write(frame_obj({"v": 1, "fp": "bbbb", "status": "completed",
                                "experiment": "e", "attempts": 1, "ts": 0}) + "\n")
        with pytest.warns(RuntimeWarning, match="quarantined 1 damaged"):
            state = registry.load()
        assert set(state.completed) == {"bbbb"}
        (damaged,) = state.salvage.quarantined
        assert damaged.offset == 0 and "version 99" in damaged.reason

    def test_unframed_line_is_damage(self, registry):
        # A record without its CRC32 envelope is quarantined mid-file
        # and dropped as a torn tail, like any other damaged line.
        for fp in ("a", "b", "c"):
            registry.mark_completed(fp * 32, "exp", fp)
        lines = open(registry.path, "rb").read().splitlines(keepends=True)
        bare = [canonical_json(unframe_obj(json.loads(line))).encode()
                for line in lines]
        lines[1] = bare[1] + b"\n"
        lines[2] = bare[2]  # unterminated: a torn tail
        open(registry.path, "wb").write(b"".join(lines))
        with pytest.warns(RuntimeWarning) as caught:
            state = registry.load()
        assert any("torn final record" in str(w.message) for w in caught)
        assert set(state.completed) == {"a" * 32}
        assert state.dropped_partial
        (damaged,) = state.salvage.quarantined
        assert damaged.raw == bare[1] and "envelope" in damaged.reason
        assert open(registry.path, "rb").read() == lines[0]

    def test_corruption_error_is_both_checkpoint_and_failure(self):
        exc = RegistryCorruptionError("x")
        assert isinstance(exc, CheckpointError)
        assert isinstance(exc, EvaluationFailure)
