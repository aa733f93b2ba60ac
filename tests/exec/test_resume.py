"""Resume semantics: journaled grids skip completed cells bit-identically.

Cells log every execution to a side-effect file, so "zero re-executed
cells" is asserted against reality, not just the accounting the
executor reports; the journal itself is inspected for the same claim.
"""

import os

import pytest

from repro.chaos.faultfs import corrupt_file
from repro.errors import ExperimentError
from repro.exec import RunRegistry, cell_fingerprint, run_grid
from repro.experiments.harness import grid_map


def _logged_cell(spec):
    """Log the execution, fail on cell 5 until its marker file exists."""
    x, log_path, marker = spec
    with open(log_path, "a") as fh:
        fh.write(f"{x}\n")
    if x == 5 and not os.path.exists(marker):
        raise RuntimeError("transient failure on 5")
    return x * 0.5


def _executions(log_path):
    if not os.path.exists(log_path):
        return []
    with open(log_path) as fh:
        return [int(line) for line in fh.read().split()]


@pytest.fixture
def grid(tmp_path):
    log = str(tmp_path / "executions.log")
    marker = str(tmp_path / "cell5-fixed")
    xs = list(range(8))
    return {
        "xs": xs,
        "specs": [(x, log, marker) for x in xs],
        "keys": xs,
        "log": log,
        "marker": marker,
        "journal": tmp_path / "journal.jsonl",
        "serial": [x * 0.5 for x in xs],
    }


def _run(grid, **kwargs):
    kwargs.setdefault("n_workers", 2)
    return run_grid(
        "resume-test",
        _logged_cell,
        grid["specs"],
        keys=grid["keys"],
        registry=grid["journal"],
        **kwargs,
    )


class TestResume:
    def test_reinvocation_executes_zero_completed_cells(self, grid):
        first = _run(grid)
        assert first.cached == 0
        assert first.executed == 7 and len(first.failures) == 1
        assert first.failures[0].key == 5 and first.failures[0].kind == "error"
        assert sorted(_executions(grid["log"])) == grid["xs"]

        # Journal inspection: the seven completed cells are durably
        # recorded, the failure is recorded as failed, nothing else.
        state = RunRegistry(grid["journal"]).load()
        expected_done = {
            cell_fingerprint("resume-test", x) for x in grid["xs"] if x != 5
        }
        assert set(state.completed) == expected_done
        assert set(state.failed) == {cell_fingerprint("resume-test", 5)}

        with open(grid["marker"], "w"):
            pass
        second = _run(grid)
        assert second.cached == 7
        assert second.executed == 1 and not second.failures
        assert list(second.results) == grid["serial"]
        # Cell 5 ran twice (fail + fix); every other cell exactly once.
        counts = {x: _executions(grid["log"]).count(x) for x in grid["xs"]}
        assert counts == {x: (2 if x == 5 else 1) for x in grid["xs"]}

    def test_resumed_results_identical_to_uninterrupted_run(self, grid, tmp_path):
        with open(grid["marker"], "w"):
            pass  # no failures in this scenario
        interrupted = _run(grid)
        resumed = _run(grid)
        assert resumed.cached == 8 and resumed.executed == 0
        assert list(resumed.results) == list(interrupted.results) == grid["serial"]

        clean = run_grid(
            "resume-test",
            _logged_cell,
            grid["specs"],
            keys=grid["keys"],
            registry=tmp_path / "other.jsonl",
            n_workers=1,
        )
        assert list(clean.results) == list(resumed.results)

    def test_repro_resume_zero_disables_skipping(self, grid, monkeypatch):
        with open(grid["marker"], "w"):
            pass
        _run(grid)
        monkeypatch.setenv("REPRO_RESUME", "0")
        again = _run(grid)
        assert again.cached == 0 and again.executed == 8
        assert len(_executions(grid["log"])) == 16

    def test_explicit_resume_flag_beats_env(self, grid, monkeypatch):
        with open(grid["marker"], "w"):
            pass
        _run(grid)
        monkeypatch.setenv("REPRO_RESUME", "0")
        forced = _run(grid, resume=True)
        assert forced.cached == 8 and forced.executed == 0


class TestTornJournal:
    def test_torn_trailing_record_is_dropped_and_cell_rerun(self, grid):
        with open(grid["marker"], "w"):
            pass
        _run(grid)
        # Simulate a kill mid-append: tear the final journal line.
        blob = grid["journal"].read_bytes().splitlines(keepends=True)
        grid["journal"].write_bytes(b"".join(blob[:-1]) + blob[-1][: len(blob[-1]) // 2])

        with pytest.warns(RuntimeWarning, match="torn final record"):
            recovered = _run(grid)
        assert recovered.cached == 7
        assert recovered.executed == 1  # only the torn cell re-ran
        assert list(recovered.results) == grid["serial"]
        assert len(_executions(grid["log"])) == 9

        # The repaired journal now loads cleanly and covers the grid.
        state = RunRegistry(grid["journal"]).load()
        assert set(state.completed) == {
            cell_fingerprint("resume-test", x) for x in grid["xs"]
        }


class TestBitRotSalvage:
    def test_flipped_record_is_salvaged_and_only_that_cell_reruns(self, grid):
        with open(grid["marker"], "w"):
            pass
        baseline = _run(grid)
        assert baseline.executed == 8 and baseline.salvaged == 0

        # Silently rot one mid-journal record (the bit-rot signature a
        # torn-tail check cannot see).
        damage = corrupt_file(grid["journal"], "bitflip", seed="rot")
        assert damage == 1

        with pytest.warns(RuntimeWarning, match="quarantined 1 damaged"):
            recovered = _run(grid)
        # Exactly the damaged cell re-ran; the rest came from cache,
        # and the merged results are bit-identical to the clean run.
        assert recovered.salvaged == 1
        assert recovered.executed == 1 and recovered.cached == 7
        assert list(recovered.results) == list(baseline.results)
        assert len(_executions(grid["log"])) == 9
        assert os.path.exists(f"{grid['journal']}.quarantine")

        # The healed journal resumes silently with zero executions.
        final = _run(grid)
        assert final.salvaged == 0
        assert final.cached == 8 and final.executed == 0
        state = RunRegistry(grid["journal"]).load()
        assert set(state.completed) == {
            cell_fingerprint("resume-test", x) for x in grid["xs"]
        }


class TestGridMapStrict:
    def test_strict_raises_only_after_journaling(self, grid):
        with pytest.raises(ExperimentError, match="resume-test"):
            grid_map(
                "resume-test",
                _logged_cell,
                grid["specs"],
                keys=grid["keys"],
                registry_path=grid["journal"],
                n_workers=2,
            )
        # The raise did not cost us the completed siblings.
        state = RunRegistry(grid["journal"]).load()
        assert len(state.completed) == 7

        with open(grid["marker"], "w"):
            pass
        results = grid_map(
            "resume-test",
            _logged_cell,
            grid["specs"],
            keys=grid["keys"],
            registry_path=grid["journal"],
            n_workers=2,
        )
        assert results == grid["serial"]
        counts = {x: _executions(grid["log"]).count(x) for x in grid["xs"]}
        assert counts == {x: (2 if x == 5 else 1) for x in grid["xs"]}
