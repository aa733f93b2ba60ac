"""Chaos tests: SIGKILL the service (and its workers) mid-grid.

The headline robustness claim of the service layer, asserted literally:

* a service process SIGKILLed while a multi-tenant grid is in flight
  recovers **every** session and job from its journals;
* cells whose results were journaled before the kill are **never
  re-executed** — the run-registry journal grows append-only across the
  restart, with exactly one record per fingerprint;
* the final results are **byte-identical** to an uninterrupted run
  (jobs are pure functions of their payloads).
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.exec import RunRegistry
from repro.exec.executor import ChaosConfig, SupervisedExecutor
from repro.exec.journal import unframe_obj
from repro.service import TuningService, execute_job
from repro.service.model import JOB_COMPLETED, JOB_QUEUED, JOB_RUNNING

TENANTS = ("t0", "t1", "t2")
JOBS_PER_TENANT = 3

_CHILD_SCRIPT = """
import sys
from repro.service import TuningService

root = sys.argv[1]
svc = TuningService(root, n_workers=2, batch_size=4).open()
for tenant in {tenants!r}:
    session = svc.create_session(tenant)
    for i in range({jobs_per_tenant}):
        svc.submit(session.session_id,
                   {{"kind": "probe", "seed": f"{{tenant}}-{{i}}",
                     "work": 64, "sleep_ms": 150}})
print("READY", flush=True)
svc.pump()
print("DONE", flush=True)
"""


def _expected_results():
    return {
        f"{tenant}-{i}": execute_job(
            {"kind": "probe", "seed": f"{tenant}-{i}",
             "work": 64, "sleep_ms": 150}
        )
        for tenant in TENANTS
        for i in range(JOBS_PER_TENANT)
    }


def _complete_prefix(blob: bytes) -> bytes:
    """The journal bytes up to the last newline (drops a torn tail)."""
    return blob[: blob.rfind(b"\n") + 1]


def _processes_running_with(arg):
    """PIDs of live processes whose command line contains ``arg``.

    Forked pool workers keep the command line of the process that
    started them, and zombies read as empty, so this finds exactly the
    workers of a service started with ``arg``.
    """
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as f:
                cmdline = f.read()
        except OSError:
            continue
        if arg.encode() in cmdline:
            pids.append(int(entry))
    return pids


def _registry_fingerprints(path):
    if not os.path.exists(path):
        return []
    blob = _complete_prefix(open(path, "rb").read())
    return [
        unframe_obj(json.loads(line))["fp"]
        for line in blob.splitlines()
        if line
    ]


@pytest.mark.slow
class TestServiceKill:
    def test_sigkill_mid_grid_recovers_everything(self, tmp_path):
        root = tmp_path / "svc"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH", "")) if p
        )
        script = _CHILD_SCRIPT.format(tenants=TENANTS,
                                      jobs_per_tenant=JOBS_PER_TENANT)
        proc = subprocess.Popen(
            [sys.executable, "-c", script, os.fspath(root)],
            stdout=subprocess.PIPE, text=True, env=env,
            cwd=os.getcwd(),
        )
        try:
            assert proc.stdout.readline().strip() == "READY"
            # Wait until some cells have been journaled mid-grid, then
            # SIGKILL — no cleanup, no atexit, nothing graceful.
            registry_path = os.fspath(root / "runs.jsonl")
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if len(_registry_fingerprints(registry_path)) >= 2:
                    break
                if proc.poll() is not None:
                    pytest.fail("service finished before the kill landed")
                time.sleep(0.01)
            else:
                pytest.fail("no cells journaled within the deadline")
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10.0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10.0)

        # No pool worker outlives the SIGKILLed service.
        if os.path.isdir("/proc"):
            deadline = time.monotonic() + 5.0
            while (_processes_running_with(os.fspath(root))
                   and time.monotonic() < deadline):
                time.sleep(0.05)
            survivors = _processes_running_with(os.fspath(root))
            for pid in survivors:  # leave nothing behind for later tests
                os.kill(pid, signal.SIGKILL)
            assert not survivors, f"pool workers outlived the service: {survivors}"

        # A SIGKILL mid-append can leave a torn final line; recovery
        # truncates it, so the append-only claim is over the complete
        # prefix (every acknowledged record).
        journal_before = _complete_prefix(open(registry_path, "rb").read())
        fps_before = _registry_fingerprints(registry_path)
        assert fps_before  # the kill landed mid-grid

        recovered = TuningService(root, n_workers=2, batch_size=4).open()
        try:
            # Every session and job came back.
            tenants = sorted(s.tenant for s in recovered.store.sessions.values())
            assert tenants == sorted(TENANTS)
            jobs = list(recovered.store.jobs.values())
            assert len(jobs) == len(TENANTS) * JOBS_PER_TENANT
            assert all(
                j.state in (JOB_QUEUED, JOB_RUNNING, JOB_COMPLETED)
                for j in jobs
            )
            assert recovered.stats()["recovered_jobs"] > 0

            deadline = time.monotonic() + 120.0
            while any(not j.terminal
                      for j in recovered.store.jobs.values()):
                assert time.monotonic() < deadline
                recovered.pump()
        finally:
            recovered.stop()

        # All jobs completed with byte-identical payloads.
        expected = _expected_results()
        for job in recovered.store.jobs.values():
            assert job.state == JOB_COMPLETED
            assert job.result == expected[job.payload["seed"]]

        # Zero re-executed cells: the pre-kill journal is a byte prefix
        # of the final one (append-only across the restart), and no
        # fingerprint was ever journaled twice.
        journal_after = open(registry_path, "rb").read()
        assert journal_after.startswith(journal_before)
        fps_after = _registry_fingerprints(registry_path)
        assert len(fps_after) == len(set(fps_after))
        assert set(fps_before) <= set(fps_after)

    def test_second_recovery_is_a_noop(self, tmp_path):
        """Recovering an already-consistent root changes nothing."""
        root = tmp_path / "svc"
        svc = TuningService(root, n_workers=1).open()
        session = svc.create_session("t0")
        job = svc.submit(session.session_id,
                         {"kind": "probe", "seed": "x", "work": 8})
        svc.pump()
        result = svc.job(job.job_id).result

        journal = open(svc.registry.path, "rb").read()
        again = TuningService(root, n_workers=1).open()
        assert again.stats()["recovered_jobs"] == 0
        assert again.job(job.job_id).result == result
        assert open(again.registry.path, "rb").read() == journal


@pytest.mark.slow
class TestWorkerKill:
    def test_chaos_worker_kills_do_not_lose_or_duplicate_cells(self, tmp_path):
        """Workers SIGKILLed mid-grid: retries recover every cell once."""
        executor = SupervisedExecutor(
            n_workers=2,
            chaos=ChaosConfig(kill_rate=0.3, seed="svc-chaos"),
            retry_backoff_seconds=0.01,
        )
        svc = TuningService(tmp_path / "svc", executor=executor,
                            batch_size=6).open()
        try:
            session = svc.create_session("t0")
            jobs = [
                svc.submit(session.session_id,
                           {"kind": "probe", "seed": f"c{i}", "work": 32})
                for i in range(6)
            ]
            deadline = time.monotonic() + 120.0
            while any(not svc.job(j.job_id).terminal for j in jobs):
                assert time.monotonic() < deadline
                svc.pump()
        finally:
            svc.stop()
        expected = {
            f"c{i}": execute_job({"kind": "probe", "seed": f"c{i}", "work": 32})
            for i in range(6)
        }
        for j in jobs:
            done = svc.job(j.job_id)
            assert done.state == JOB_COMPLETED
            assert done.result == expected[done.payload["seed"]]
        fps = _registry_fingerprints(svc.registry.path)
        assert len(fps) == len(set(fps)) == 6
