"""Small-size checks of the repository benchmark.

Run from the repository root:  ``python3 -m pytest perfbench/tests -q``
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (str(ROOT / "src"), str(ROOT)):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import run, spans  # noqa: E402
from perfbench.grid_resume import RESUMES, SEARCHES, GridWorkload  # noqa: E402
from perfbench.service_load import ServiceWorkload  # noqa: E402
from perfbench.transfer_sessions import TransferWorkload, entry_key  # noqa: E402


def span(sid, parent, name, start, end, pid=1):
    return (pid, sid, parent, name, start, end, False, None)


# -- self-time arithmetic --------------------------------------------------
def test_self_time_subtracts_the_union_of_child_intervals():
    trace = [
        span(1, 0, "a", 0.0, 10.0),
        span(2, 1, "b", 1.0, 3.0),
        span(3, 1, "c", 2.0, 5.0),  # overlaps b: children cover [1, 5]
        span(4, 2, "d", 1.5, 2.5),
        span(5, 1, "e", 9.0, 12.0),  # runs past its parent: clipped to [9, 10]
    ]
    selfs = spans.self_times(trace)
    assert selfs[(1, 1)] == pytest.approx(10.0 - 4.0 - 1.0)
    assert selfs[(1, 2)] == pytest.approx(1.0)
    assert selfs[(1, 3)] == pytest.approx(3.0)
    assert selfs[(1, 4)] == pytest.approx(1.0)


def test_span_ids_of_two_processes_do_not_mix():
    trace = [span(1, 0, "a", 0.0, 4.0, pid=1), span(2, 1, "b", 0.0, 1.0, pid=2),
             span(1, 0, "b", 0.0, 1.0, pid=2)]
    selfs = spans.self_times(trace)
    assert selfs[(1, 1)] == pytest.approx(4.0)  # pid 2's span 2 is not its child


def test_layer_table_counts_a_reentered_layer_once_in_busy_time():
    trace = [span(1, 0, "a", 0.0, 4.0), span(2, 1, "a", 1.0, 2.0),
             span(3, 0, "b", 5.0, 7.0), span(4, 3, "a", 5.5, 6.0)]
    table = spans.layer_table(trace)
    assert table["a"]["calls"] == 3
    assert table["a"]["busy_s"] == pytest.approx(4.0 + 0.5)
    assert table["a"]["self_s"] == pytest.approx(3.0 + 1.0 + 0.5)
    assert table["b"]["self_s"] == pytest.approx(1.5)


def test_tracer_nests_spans_and_restores_the_program():
    import repro.kernels.base as kernels_base
    import repro.orio.analysis as analysis

    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda: 1)
    outer = tracer.wrap("outer", lambda: inner() + 1)
    assert outer() == 2
    (i, o) = tracer.spans
    assert (i[3], o[3]) == ("inner", "outer") and i[2] == o[1] and o[2] == 0

    original = analysis.analyze_variant
    tracer.install()
    try:
        assert kernels_base.analyze_variant is not original
        assert analysis.analyze_variant is kernels_base.analyze_variant
    finally:
        tracer.uninstall()
    assert kernels_base.analyze_variant is original
    assert analysis.analyze_variant is original


# -- the workloads at small sizes ---------------------------------------------
def test_transfer_session_matches_its_stored_digests(tmp_path):
    workload = TransferWorkload("transfer_spapt")
    workload.setup(tmp_path)
    out, done = workload.execute(workload.plan(0, 1)[:1])
    assert (done, out.attempted, out.failed) == (1, 1, 0)
    # source RS + RS/RSp/RSb/RSpf/RSbf at nmax=100, one correct session
    assert out.units[0][:2] == (520, 1)


def test_corrupted_digest_raises_failed_frac(tmp_path):
    workload = TransferWorkload("transfer_spapt")
    workload.setup(tmp_path)
    entry = workload.plan(0, 1)[0]
    workload.digests[entry_key(entry)]["RSb"] = "0" * 64
    out, _ = workload.execute([entry])
    assert out.failed == 1 and out.units[0][1] == 0
    assert out.failed / out.attempted > 0


def test_transfer_rt_session_completes(tmp_path):
    workload = TransferWorkload("transfer_rt")
    workload.setup(tmp_path)
    out, done = workload.execute(workload.plan(0, 1)[:1])
    assert (done, out.failed, out.units[0][1]) == (1, 0, 1)


def test_service_mix_completes(tmp_path):
    workload = ServiceWorkload()
    workload.setup(tmp_path)
    try:
        requests = workload.plan(0, 1.0)
        out, sent = workload.execute(requests, 1.0)
    finally:
        workload.close()
    assert sent == len(requests)
    (evals, jobs, _), = out.units
    assert out.failed == 0 and jobs > 0 and evals >= 0
    assert len(out.latencies) == sum(op == "submit" for _, op, _, _ in requests)


def test_checkpointed_grid_round_resumes_and_merges(tmp_path):
    workload = GridWorkload()
    workload.setup(tmp_path)
    out, done = workload.execute(workload.plan(0, 1)[:1])
    assert done == 1 and out.failed == 0
    assert out.units[0][1] == 2 * len(SEARCHES) and len(out.latencies) == 1
    assert out.attempted == 2 * len(SEARCHES) + RESUMES  # cells plus cached re-invocations


# -- the contract ------------------------------------------------------------
def test_benchmark_json_matches_the_definitions():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in bench["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]} == run.END_TO_END
    assert ({m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
            == spans.per_layer_metrics())
    setup_bound = next(m["bound"] for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert all(m["bound"] <= setup_bound for m in bench["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_the_contract_line(trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "service_mix",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    names = spans.per_layer_metrics() if trace else run.END_TO_END
    assert list(result["metrics"]) == list(names)
