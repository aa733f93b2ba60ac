"""Bounded meta-campaign smoke test (the ``make meta-smoke`` target).

A tiny meta-grid is run as a real subprocess (``python -m
repro.meta.campaign``), SIGKILLed mid-campaign, and resumed in-process
by the same campaign call: every cell journaled before the kill must
be served from the registry — **zero re-executed cells** — and the
resumed campaign must still produce the recommendation artifacts.
"""

import json
import os
import signal
import subprocess
import sys
import time
import warnings

import pytest

import repro
import repro.experiments.harness as harness
from repro.exec import RunRegistry
from repro.meta.campaign import (
    render_recommendations,
    run_meta_campaign,
    write_artifacts,
)

# The tiny campaign: 1 problem x 1 pair x 2 seeds x (default + 2
# sampled candidates) = 6 cells, each a full inner session at nmax=6.
PROBLEMS = ("MM",)
PAIRS = (("westmere", "sandybridge"),)
SEEDS = (0, 1)
N_CANDIDATES = 2
NMAX = 6
N_CELLS = len(SEEDS) * (N_CANDIDATES + 1)

CLI = [
    "--problems", "MM",
    "--pair", "westmere:sandybridge",
    "--seeds", str(len(SEEDS)),
    "--candidates", str(N_CANDIDATES),
    "--nmax", str(NMAX),
    "--out", "",  # no artifacts from the doomed subprocess
]


def _completed(journal):
    """Completed-cell count, ignoring a torn record from the kill."""
    if not os.path.exists(journal):
        return 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return len(RunRegistry(journal).load().completed)


def _campaign(journal, monkeypatch):
    """The CLI's campaign, in-process; returns (summary, cells executed)."""
    executed = []
    real = harness.evaluate_spec

    def counting(spec, **kwargs):
        executed.append(kwargs["seed"])
        return real(spec, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(harness, "evaluate_spec", counting)
        summary = run_meta_campaign(
            problems=PROBLEMS, pairs=PAIRS, seeds=SEEDS,
            n_candidates=N_CANDIDATES, nmax=NMAX, registry_path=journal,
        )
    return summary, len(executed)


def test_sigkilled_campaign_resumes_with_zero_reexecuted_cells(
    tmp_path, monkeypatch
):
    journal = str(tmp_path / "meta.jsonl")
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")

    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.meta.campaign",
         "--registry", journal, *CLI],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        # SIGKILL — not SIGTERM, no cleanup — once at least two cells
        # are durably journaled but before the campaign can finish.
        deadline = time.monotonic() + 120.0
        while _completed(journal) < 2:
            if proc.poll() is not None:
                pytest.fail("campaign subprocess finished before the kill")
            if time.monotonic() > deadline:
                pytest.fail("campaign subprocess made no progress")
            time.sleep(0.005)
        os.kill(proc.pid, signal.SIGKILL)
    finally:
        proc.wait()

    survived = _completed(journal)
    assert 2 <= survived < N_CELLS  # died mid-campaign, journal intact

    # Resume the same campaign: every journaled cell is served from
    # the registry, only the missing ones execute.
    summary, executed = _campaign(journal, monkeypatch)
    assert executed == N_CELLS - survived  # zero re-executed cells
    assert summary["n_cells"] == N_CELLS
    assert _completed(journal) == N_CELLS
    # The campaign's cell identity: experiment name and key format.
    records = RunRegistry(journal).load().completed.values()
    assert {r.experiment for r in records} == {"meta-campaign"}
    assert "MM:westmere->sandybridge:s1:n6:RSp+RSb:default" in {
        r.key for r in records
    }

    # A full re-invocation is now pure cache.
    again, executed = _campaign(journal, monkeypatch)
    assert executed == 0
    assert again == summary


def test_journal_rerun_with_another_budget_scores_fresh_cells(tmp_path):
    """A cell's key names its ``nmax`` and variants: re-running the
    campaign with a larger budget on the same journal must not serve
    the smaller budget's payloads."""
    journal = str(tmp_path / "meta.jsonl")
    small = run_meta_campaign(
        problems=PROBLEMS, pairs=PAIRS, seeds=(0,), n_candidates=0,
        nmax=NMAX, registry_path=journal,
    )
    large = run_meta_campaign(
        problems=PROBLEMS, pairs=PAIRS, seeds=(0,), n_candidates=0,
        nmax=NMAX + 2, registry_path=journal,
    )
    assert [r["nmax"] for r in small["results"]] == [NMAX]
    assert [r["nmax"] for r in large["results"]] == [NMAX + 2]
    assert _completed(journal) == 2


def test_campaign_summary_and_artifacts(tmp_path):
    journal = str(tmp_path / "meta.jsonl")
    summary = run_meta_campaign(
        problems=PROBLEMS, pairs=PAIRS, seeds=SEEDS,
        n_candidates=N_CANDIDATES, nmax=NMAX, registry_path=journal,
    )
    assert summary["n_cells"] == N_CELLS
    assert [c["candidate"] for c in summary["candidates"]][0] == "default"
    assert len(summary["recommendations"]) == 1
    rec = summary["recommendations"][0]
    assert rec["problem"] == "MM"
    assert (rec["source"], rec["target"]) == PAIRS[0]
    assert rec["n_seeds"] == len(SEEDS)
    assert rec["objective"] >= rec["default_objective"] > 0

    out = tmp_path / "results"
    json_path, txt_path = write_artifacts(summary, str(out))
    with open(json_path) as fh:
        assert json.load(fh)["recommendations"] == summary["recommendations"]
    with open(txt_path) as fh:
        assert fh.read() == render_recommendations(summary)

    # Rendering mentions every recommendation's winning candidate.
    assert rec["candidate"] in render_recommendations(summary)
