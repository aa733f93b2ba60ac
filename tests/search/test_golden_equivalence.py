"""Golden-trace equivalence: the engine-backed searches must reproduce
the pre-refactor implementations byte for byte.

The fixtures in ``golden/traces.json`` were generated by running the
scenarios in ``golden_scenarios.py`` against the hand-rolled loops
*before* they became :class:`~repro.search.engine.SearchEngine`
factories (see that module's docstring for regeneration rules).  Every
scenario — clean, faulted, and budget-limited — must match exactly:
same configurations, runtimes, per-record elapsed times, skip counts,
failure/censoring flags, metadata, and budget-exhaustion state.

The resume tests additionally kill each checkpointable scenario at a
mid-run save (simulating a crash) and replay it to completion from the
checkpoint; the stitched trace must still equal the golden fixture.

The session tests run one small whole transfer session per problem of
the evaluation and compare the trace digest of its source search and
of every variant with ``golden/sessions.json``.
"""

import json
import os

import pytest

from repro.reliability import CheckpointManager, trace_to_dict

from tests.search.golden_scenarios import (
    CHECKPOINTABLE,
    NMAX,
    PROBLEMS,
    SCENARIOS,
    _Killed,
    _KillingManager,
    session_digests,
)

FIXTURE_PATH = os.path.join(os.path.dirname(__file__), "golden", "traces.json")

SESSIONS_PATH = os.path.join(
    os.path.dirname(__file__), "golden", "sessions.json"
)

with open(FIXTURE_PATH) as _fh:
    FIXTURES = json.load(_fh)
with open(SESSIONS_PATH) as _fh:
    SESSION_FIXTURES = json.load(_fh)


def test_fixture_covers_every_scenario():
    assert sorted(FIXTURES) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_trace_matches_golden(name):
    trace = SCENARIOS[name]()
    assert trace_to_dict(trace) == FIXTURES[name]


@pytest.mark.parametrize("name", ["rs_budget", "rsb_budget"])
def test_budget_scenarios_exhaust_midrun(name):
    """The budget walls are calibrated to hit *during* the search, so
    the golden comparison actually covers the exhaustion path."""
    fixture = FIXTURES[name]
    assert fixture["exhausted_budget"]
    assert 1 <= len(fixture["records"]) < NMAX


@pytest.mark.parametrize("name", CHECKPOINTABLE)
def test_killed_and_resumed_matches_golden(name, tmp_path):
    path = tmp_path / f"{name}.json"
    with pytest.raises(_Killed):
        SCENARIOS[name](checkpoint=_KillingManager(path, every=2, kill_after=3))
    killed = CheckpointManager(path).load()
    assert killed is not None and killed.position > 0  # died mid-run
    resumed = SCENARIOS[name](checkpoint=CheckpointManager(path, every=2))
    assert trace_to_dict(resumed) == FIXTURES[name]


def test_session_fixture_covers_every_problem():
    assert sorted(SESSION_FIXTURES) == sorted(PROBLEMS)


@pytest.mark.parametrize("problem", PROBLEMS)
def test_session_matches_golden(problem):
    assert session_digests(problem) == SESSION_FIXTURES[problem]
