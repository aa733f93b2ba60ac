"""The domain bridge: what a service job actually runs.

:func:`execute_job` is the one function the service dispatches onto the
shared :class:`~repro.exec.SupervisedExecutor` fleet.  It is a module-
level pure function of its payload — picklable for worker processes,
deterministic for a given payload — which is precisely what makes the
whole service crash-safe: the job's registry fingerprint is derived
from the payload, so a re-dispatched job after a crash either finds its
journaled result (zero re-execution) or recomputes the bit-identical
value.

Payload kinds:

``probe``
    A cheap deterministic unit of work (hash mixing, optional real
    sleep) — the load- and chaos-test workload.
``search``
    One search variant on one kernel/machine through the real
    :class:`~repro.search.engine.SearchEngine` stack (RS via the shared
    stream); returns the trace summary plus a digest over the full
    record stream, so byte-identical recovery is checkable end to end.
``transfer``
    A full :class:`~repro.transfer.session.TransferSession` cell — the
    paper's experiment as a service job.

``search`` and ``transfer`` payloads optionally carry a ``"spec"``
key: a versioned :class:`~repro.spec.TunerSpec` wire dict (see
:meth:`~repro.spec.TunerSpec.to_dict`) that threads tuner
hyperparameters through the job and runs as given.  A spec-less
``transfer`` job sets ``pool.size`` from ``"pool_size"`` (default
2000); a payload carrying both fails with
:class:`~repro.errors.SpecError`.  Because the spec is part of the
payload it is part of the job's fingerprint — two jobs differing only
in hyperparameters journal as distinct cells.

Results are JSON-safe dicts: they are journaled, recovered, and
returned to clients as-is.
"""

from __future__ import annotations

import hashlib
import time

from repro.errors import ReproError, SpecError
from repro.exec.fingerprint import canonical_json
from repro.utils.rng import stable_hash

__all__ = ["execute_job", "trace_digest"]


def trace_digest(trace) -> str:
    """A stable digest over every record of a search trace.

    Two runs produced the same search if and only if their digests
    match — the service's recovery tests assert exactly this across
    SIGKILL/restart boundaries.
    """
    rows = [
        {
            "index": r.config.index,
            "values": dict(r.config),
            "runtime": r.runtime,
            "elapsed": r.elapsed,
            "failed": r.failed,
            "censored": r.censored,
        }
        for r in trace.records
    ]
    payload = canonical_json(
        {"algorithm": trace.algorithm, "records": rows,
         "total_elapsed": trace.total_elapsed}
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _run_probe(payload: dict) -> dict:
    work = int(payload.get("work", 64))
    seed = payload.get("seed", 0)
    sleep_ms = float(payload.get("sleep_ms", 0.0))
    if payload.get("fail"):
        raise ReproError(f"probe asked to fail (seed={seed!r})")
    if sleep_ms > 0:
        time.sleep(sleep_ms / 1000.0)
    acc = 0
    for i in range(work):
        acc = stable_hash("service-probe", seed, acc, i) % (1 << 53)
    return {"kind": "probe", "value": acc, "work": work}


def _payload_spec(payload: dict):
    """Decode the optional ``"spec"`` key of a job payload.

    A :class:`~repro.spec.TunerSpec` wire dict rides inside the JSON
    payload; decoding re-validates every knob, so a malformed or
    version-skewed spec fails the job loudly at dispatch rather than
    silently mistuning the search.  Returns ``None`` when absent.
    """
    wire = payload.get("spec")
    if wire is None:
        return None
    from repro.spec import TunerSpec

    return TunerSpec.from_dict(wire)


def _run_search(payload: dict) -> dict:
    from repro.kernels import get_kernel
    from repro.machines import get_machine
    from repro.orio.evaluator import OrioEvaluator
    from repro.search.random_search import random_search
    from repro.search.stream import SharedStream

    kernel = get_kernel(str(payload.get("kernel", "mm")))
    machine = get_machine(str(payload.get("machine", "sandybridge")))
    nmax = int(payload.get("nmax", 20))
    seed = payload.get("seed", 0)
    spec = _payload_spec(payload)
    evaluator = OrioEvaluator(kernel, machine)
    stream = SharedStream(kernel.space, seed=("service", str(seed)))
    trace = random_search(evaluator, stream, nmax=nmax, spec=spec)
    best = trace.best()
    result = {
        "kind": "search",
        "kernel": kernel.name,
        "machine": machine.name,
        "n_evaluations": trace.n_evaluations,
        "best_runtime": best.runtime,
        "best_config": dict(best.config),
        "total_elapsed": trace.total_elapsed,
        "trace_digest": trace_digest(trace),
    }
    if spec is not None:
        result["spec_fingerprint"] = spec.fingerprint()
    return result


def _run_transfer(payload: dict) -> dict:
    from repro.experiments.harness import build_session
    from repro.spec import DEFAULT_SPEC

    spec = _payload_spec(payload)
    if spec is None:
        session_spec = DEFAULT_SPEC.with_value(
            "pool.size", int(payload.get("pool_size", 2000))
        )
    elif "pool_size" in payload:
        raise SpecError(
            "a transfer job sets its pool through spec.pool.size or "
            "pool_size, not both"
        )
    else:
        session_spec = spec
    session = build_session(
        problem=str(payload.get("problem", "MM")),
        source=str(payload.get("source", "westmere")),
        target=str(payload.get("target", "sandybridge")),
        seed=payload.get("seed", 0),
        nmax=int(payload.get("nmax", 30)),
        variants=tuple(payload.get("variants", ("RSp", "RSb"))),
        spec=session_spec,
    )
    outcome = session.run()
    result = {
        "kind": "transfer",
        "kernel": outcome.kernel,
        "source": outcome.source,
        "target": outcome.target,
        "reports": {
            name: {
                "performance": rep.performance,
                "search_time": rep.search_time,
                "best_variant_runtime": rep.best_variant_runtime,
            }
            for name, rep in outcome.reports.items()
        },
        "trace_digests": {
            name: trace_digest(trace)
            for name, trace in sorted(outcome.traces.items())
        },
    }
    if spec is not None:
        result["spec_fingerprint"] = spec.fingerprint()
    return result


_KINDS = {
    "probe": _run_probe,
    "search": _run_search,
    "transfer": _run_transfer,
}


def execute_job(payload: dict) -> dict:
    """Run one service job payload to its JSON-safe result dict."""
    kind = str(payload.get("kind", ""))
    runner = _KINDS.get(kind)
    if runner is None:
        raise ReproError(
            f"unknown job kind {kind!r}; known: {sorted(_KINDS)}"
        )
    return runner(payload)
