"""Bounded meta-campaign smoke test (the ``make meta-smoke`` target).

A tiny meta-grid is run as a real subprocess (``python -m
repro.meta.campaign``), SIGKILLed mid-campaign, and resumed in-process
through the identical grid: every cell journaled before the kill must
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
from repro.exec import RunRegistry, run_grid
from repro.meta.campaign import (
    _meta_cell,
    campaign_cells,
    candidate_specs,
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


def _grid(journal, **kwargs):
    cells, keys = campaign_cells(
        candidate_specs(N_CANDIDATES), problems=PROBLEMS, pairs=PAIRS,
        seeds=SEEDS, nmax=NMAX,
    )
    assert len(cells) == N_CELLS
    return run_grid(
        "meta-campaign", _meta_cell, cells, keys=keys, registry=journal,
        n_workers=1, **kwargs,
    )


def test_sigkilled_campaign_resumes_with_zero_reexecuted_cells(tmp_path):
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

    # Resume the identical grid: every journaled cell is served from
    # the registry, only the missing ones execute.
    outcome = _grid(journal)
    assert outcome.cached == survived  # zero re-executed cells
    assert outcome.executed == N_CELLS - survived
    assert not outcome.failures
    assert _completed(journal) == N_CELLS

    # A full re-invocation is now pure cache.
    again = _grid(journal)
    assert again.cached == N_CELLS and again.executed == 0
    assert [r["fingerprint"] for r in again.results] == [
        r["fingerprint"] for r in outcome.results
    ]


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
