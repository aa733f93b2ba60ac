"""service_mix: an open loop of requests against one TuningService.

One generator thread sends requests on a fixed schedule (``RATE`` per
second, whatever the replies) through ``ServiceHandler.handle``, while
the service's own pump thread (``start()``) dispatches queued jobs, so
requests compete with dispatch for the interpreter lock and the service
lock.  Submits mix ``probe`` jobs with small MM ``search`` jobs.  A
request's latency counts from its scheduled send time, so a stall also
charges the requests due behind it.  The gated latency is that of the
submits, the half of the traffic that runs admission and a journal
write: the median over all requests sits where the sub-millisecond
read ops meet the submits, so it jumps between the two.

The service configuration, the tenants, the op shares and the probe
size are those of the closed-loop service benchmark this workload
supersedes (``benchmarks/test_perf_service.py``); the share of search
jobs is the one at which dispatch became the hot path in a profiled
service run.  The expected result of every job is worked out by
:meth:`ServiceWorkload.plan`, so no pass runs a job outside the service.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from perfbench.common import Outcome, quantile, rng_for

__all__ = ["ServiceWorkload"]

#: Requests per second: a third of the rate (90 to 120 with this mix)
#: at which the service process saturated one CPU of a 2-CPU x86 host,
#: so queues form and drain and the run ends with no backlog.
RATE = 30.0
TENANTS = 8
MIX = {"submit": 0.5, "events": 0.3, "job": 0.15, "stats": 0.05}
SERVICE = {"n_workers": 1, "batch_size": 16, "max_total_queued": 48,
           "store_max_bytes": 256 * 1024}
QUOTA = {"max_live_sessions": 2, "max_queued_jobs": 8}
PROBE_WORK = 8
SEARCH_SHARE = 0.3  # of submits
SEARCH_NMAX = 10
SEARCH_MACHINES = ("westmere", "sandybridge", "power7")
SEARCH_SEEDS = 4
REFUSALS = ("quota-exceeded", "queue-full", "overloaded")
DRAIN_TIMEOUT_S = 60.0


class ServiceWorkload:
    """The request schedule of one seed, sent against a fresh service."""

    name = "service_mix"

    def setup(self, scratch: Path) -> None:
        from repro.service.worker import execute_job

        self.scratch = scratch
        self.opened = 0
        self.expected: dict[str, dict] = {}
        execute_job({"kind": "probe", "seed": "warm-up", "work": PROBE_WORK})
        execute_job({"kind": "search", "kernel": "mm", "machine": "westmere",
                     "nmax": 2, "seed": "warm-up"})
        self.live = None
        self.prepare()

    def prepare(self) -> None:
        """Open a fresh service for the next pass, so every pass starts
        from the same empty state and no pass times the opening."""
        if self.live is None:
            self.live = self._open()

    def _open(self):
        """A fresh service root, one session per tenant, pump started."""
        from repro.service import ServiceHandler, TenantQuota, TuningService

        root = self.scratch / f"service{self.opened}"
        self.opened += 1
        service = TuningService(root, default_quota=TenantQuota(**QUOTA), **SERVICE).open()
        handler = ServiceHandler(service)
        sessions = [
            handler.handle({"op": "create_session", "tenant": f"tenant-{t}"})
            ["session"]["session_id"]
            for t in range(TENANTS)
        ]
        service.start()
        return service, handler, sessions

    def plan(self, seed: int, seconds: float) -> list[tuple]:
        """(offset_s, op, tenant, payload) for every scheduled request.

        The shares of ops and of search jobs are exact, so every seed
        sends the same mix; the seed shuffles it and draws the rest.
        Each submitted job's expected result is worked out here, by a
        direct ``execute_job`` call, before any pass is timed."""
        from repro.service.worker import execute_job

        rng = rng_for(self.name, seed)
        n = int(seconds * RATE)
        ops = [op for op, share in MIX.items() for _ in range(int(share * n))]
        ops += ["events"] * (n - len(ops))
        rng.shuffle(ops)
        n_submits = ops.count("submit")
        kinds = ["search"] * int(SEARCH_SHARE * n_submits)
        kinds += ["probe"] * (n_submits - len(kinds))
        rng.shuffle(kinds)
        requests = []
        for i, op in enumerate(ops):
            payload = None
            if op == "submit" and kinds.pop() == "search":
                payload = {"kind": "search", "kernel": "mm",
                           "machine": rng.choice(SEARCH_MACHINES),
                           "nmax": SEARCH_NMAX, "seed": rng.randrange(SEARCH_SEEDS)}
            elif op == "submit":
                payload = {"kind": "probe", "seed": f"{seed}/{i}", "work": PROBE_WORK}
            if payload is not None and _key(payload) not in self.expected:
                self.expected[_key(payload)] = execute_job(payload)
            requests.append((i / RATE, op, rng.randrange(TENANTS), payload))
        return requests

    @staticmethod
    def _request(op, tenant, payload, sessions, cursors, last_job) -> dict:
        if op == "submit":
            return {"op": "submit", "session": sessions[tenant],
                    "tenant": f"tenant-{tenant}", "payload": payload}
        if op == "events":
            return {"op": "events", "session": sessions[tenant], "after": cursors[tenant]}
        if op == "job" and tenant in last_job:
            return {"op": "job", "job": last_job[tenant]}
        return {"op": "stats"}

    def execute(self, requests, seconds=None, tracer=None):
        """Send the requests due before ``seconds`` (all when None), wait
        for every accepted job, then check each result."""
        service, handler, sessions = self.live
        self.live = None
        out = Outcome()
        accepted: dict[str, dict] = {}
        last_job: dict[int, str] = {}
        cursors = [0] * TENANTS
        lags: list[float] = []
        latencies: list[float] = []
        refused = 0
        clock = time.perf_counter
        start = clock()
        try:
            for offset, op, tenant, payload in requests:
                if seconds is not None and offset >= seconds:
                    break
                due = start + offset
                now = clock()
                if now < due:
                    time.sleep(due - now)
                    now = clock()
                lags.append(now - due)
                request = self._request(op, tenant, payload, sessions, cursors, last_job)
                response = handler.handle(request)
                latency = clock() - due
                latencies.append(latency)
                out.attempted += 1
                kind = request["op"]
                if kind == "submit":
                    out.latencies.append(latency)
                if response["ok"]:
                    if kind == "submit":
                        job_id = response["job"]["job_id"]
                        accepted[job_id] = payload
                        last_job[tenant] = job_id
                    elif kind == "events" and response["events"]:
                        cursors[tenant] = response["events"][-1]["seq"]
                elif kind == "submit" and response["error"].get("reason") in REFUSALS:
                    refused += 1
                else:
                    out.fail(f"{kind}: {response['error']}")
            self._drain(service, accepted)
            busy_s = clock() - start
        finally:
            service.stop()
        turnaround, evals = self._check(out, service, accepted)
        out.units.append((evals, len(turnaround), busy_s))
        out.figures.update({
            "request_s_p50": quantile(latencies, 0.5),
            "request_s_p99": quantile(latencies, 0.99),
            "rejected_frac": refused / len(out.latencies) if out.latencies else 0.0,
            "lag_s_p99": quantile(lags, 0.99),
        })
        if turnaround:
            out.figures["job_turnaround_s_p50"] = quantile(turnaround, 0.5)
            out.figures["job_turnaround_s_p99"] = quantile(turnaround, 0.99)
        return out, len(latencies)

    @staticmethod
    def _drain(service, accepted) -> None:
        deadline = time.perf_counter() + DRAIN_TIMEOUT_S
        pending = list(accepted)
        while pending and time.perf_counter() < deadline:
            pending = [j for j in pending if not service.job(j).terminal]
            if pending:
                time.sleep(0.005)

    def _check(self, out: Outcome, service, accepted) -> tuple[list[float], int]:
        """Every accepted job completed with the result a direct
        ``execute_job`` call gave in :meth:`plan`; returns the correct
        jobs' turnaround times and their evaluations."""
        turnaround, evals = [], 0
        for job_id, payload in accepted.items():
            out.attempted += 1
            job = service.job(job_id)
            if job.state != "completed":
                out.fail(f"job {job_id} ended {job.state}: {job.error}")
                continue
            if job.result != self.expected[_key(payload)]:
                out.fail(f"job {job_id}: result differs from a direct execute_job call")
                continue
            evals += job.result.get("n_evaluations", 0)
            turnaround.append(job.finished_ts - job.submitted_ts)
        return turnaround, evals

    def close(self) -> None:
        if self.live is not None:
            self.live[0].stop()
            self.live = None


def _key(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)
