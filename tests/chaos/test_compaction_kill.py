"""SIGKILL landing inside journal compaction loses nothing.

Compaction is the one moment a journal is wholesale replaced, so it is
where a crash is most dangerous.  These tests freeze a real child
process at the two crash points of :meth:`JsonlJournal.rewrite` —
snapshot staged but not yet swapped in, and swapped in but the
directory fsync still pending — SIGKILL it there, and assert the
append-only durability claim for both journal-backed stores:

* :class:`RunRegistry`: every completed cell is still completed after
  the kill; a resumed grid re-executes **zero** cells.
* :class:`SessionStore`: every session and job state survives replay.

In both cases a stale ``*.tmp`` left by the kill must be
discarded (never read) by the next append or compaction.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.exec import RunRegistry, run_grid
from repro.exec.journal import unframe_obj
from repro.service.store import SessionStore

#: The two crash points inside ``JsonlJournal.rewrite``.
PHASES = ("before-replace", "after-replace")

_GRID_CELLS = 6
_HOOK = """
import os, sys, time

_real_replace = os.replace

def _frozen_replace(src, dst):
    if PHASE == "after-replace":
        _real_replace(src, dst)
    print("SWAP", flush=True)
    time.sleep(120)  # parent SIGKILLs here

os.replace = _frozen_replace
"""

_REGISTRY_CHILD = """
import os, sys, time
from repro.exec import run_grid

root, PHASE = sys.argv[1], sys.argv[2]
path = os.path.join(root, "runs.jsonl")

def _cell(x):
    return x * x

outcome = run_grid("kill-compact", _cell, list(range({cells})),
                   registry=path, n_workers=1, task_timeout=None)
assert outcome.ok
{hook}
from repro.exec import RunRegistry
RunRegistry(path).compact()
"""

_STORE_CHILD = """
import os, sys, time
from repro.service.store import SessionStore
from repro.service.model import JobRecord, SessionRecord

root, PHASE = sys.argv[1], sys.argv[2]
store = SessionStore(os.path.join(root, "sessions.jsonl")).open()
for i in range(3):
    sid = f"s{{i}}"
    store.record("session-created", sid,
                 session=SessionRecord(session_id=sid, tenant="acme"))
    store.record("job-submitted", sid,
                 job=JobRecord(job_id=f"j{{i}}", session_id=sid,
                               tenant="acme",
                               payload={{"kind": "probe", "seed": str(i)}},
                               cost=1))
{hook}
store.compact()
"""


def _cell(x):
    return x * x


def _spawn_frozen(script: str, root, phase: str) -> subprocess.Popen:
    """Run a child to its SWAP line (frozen inside compaction)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH", "")) if p
    )
    env.pop("REPRO_CHAOS_RATE", None)
    proc = subprocess.Popen(
        [sys.executable, "-c", script, os.fspath(root), phase],
        stdout=subprocess.PIPE, text=True, env=env, cwd=os.getcwd(),
    )
    try:
        line = proc.stdout.readline().strip()
        assert line == "SWAP", f"child failed before compaction: {line!r}"
    except BaseException:
        proc.kill()
        proc.wait(timeout=10.0)
        raise
    return proc


def _sigkill(proc: subprocess.Popen) -> None:
    os.kill(proc.pid, signal.SIGKILL)
    proc.wait(timeout=10.0)


@pytest.mark.slow
class TestRegistryCompactionKill:
    @pytest.mark.parametrize("phase", PHASES)
    def test_no_completed_cell_is_lost_or_rerun(self, tmp_path, phase):
        script = _REGISTRY_CHILD.format(cells=_GRID_CELLS, hook=_HOOK)
        proc = _spawn_frozen(script, tmp_path, phase)
        _sigkill(proc)

        path = tmp_path / "runs.jsonl"
        if phase == "before-replace":
            # Old journal intact, partial snapshot abandoned as a tmp.
            assert os.path.exists(f"{path}.tmp")
        state = RunRegistry(path).load()
        assert len(state.completed) == _GRID_CELLS

        # The durability claim, end to end: a resumed grid re-executes
        # zero cells and returns bit-identical results.
        outcome = run_grid("kill-compact", _cell, list(range(_GRID_CELLS)),
                           registry=path, n_workers=1, task_timeout=None)
        assert outcome.executed == 0 and outcome.cached == _GRID_CELLS
        assert list(outcome.results) == [x * x for x in range(_GRID_CELLS)]

        # The stale temporary is discarded, never read.
        RunRegistry(path).compact()
        assert not os.path.exists(f"{path}.tmp")
        assert len(RunRegistry(path).load().completed) == _GRID_CELLS


@pytest.mark.slow
class TestStoreCompactionKill:
    @pytest.mark.parametrize("phase", PHASES)
    def test_no_acknowledged_transition_is_lost(self, tmp_path, phase):
        script = _STORE_CHILD.format(hook=_HOOK)
        proc = _spawn_frozen(script, tmp_path, phase)
        _sigkill(proc)

        path = tmp_path / "sessions.jsonl"
        if phase == "before-replace":
            assert os.path.exists(f"{path}.tmp")
        else:
            # The swap landed: the journal now leads with the snapshot.
            with open(path, "rb") as fh:
                first, _framed = unframe_obj(json.loads(fh.readline()))
            assert first["kind"] == "snapshot"

        store = SessionStore(path).open()
        assert sorted(store.sessions) == ["s0", "s1", "s2"]
        assert sorted(store.jobs) == ["j0", "j1", "j2"]
        assert all(j.state == "queued" for j in store.jobs.values())

        # Appending after the crash discards the stale temporary and the
        # journal replays to the same state plus the new transition.
        store.record("session-closed", "s0")
        assert not os.path.exists(f"{path}.tmp")
        replayed = SessionStore(path).open()
        assert sorted(replayed.sessions) == ["s0", "s1", "s2"]
        assert sorted(replayed.jobs) == ["j0", "j1", "j2"]
