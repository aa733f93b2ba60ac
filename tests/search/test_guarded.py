"""Integration tests for the negative-transfer guard wrappers.

Three guarantees, mirroring the guard layer's contract:

1. **Inertness** — a spec without a guard and one carrying
   ``GuardPolicy.disabled()`` are byte-identical to an unguarded run
   (checked against the golden-trace fixtures), and an enabled guard
   that stays TRUSTED leaves the trace untouched.
2. **Fallback** — once REVOKED, RSp admits every stream position
   (pruning off) and RSb/RSpb serve the shared stream in order: the
   remainder of the run is plain RS under common random numbers.
3. **Durability** — a guarded run killed at a mid-run checkpoint save
   resumes to a bit-identical trace *and* bit-identical guard state,
   for every guarded variant, including runs whose guard transitions
   happen before the kill.
"""

import json

import pytest

from repro.errors import SearchError
from repro.exec.journal import unframe_line
from repro.reliability import CheckpointManager, trace_to_dict
from repro.search.biasing import biased_search, hybrid_search
from repro.search.pruning import pruned_search
from repro.spec import PoolSpec, TunerSpec
from repro.transfer.guard import GuardPolicy

from tests.search.golden_scenarios import (
    POOL,
    SCENARIOS,
    _inverted_surrogate,
    _kernel,
    _Killed,
    _KillingManager,
    _source_training,
    _stream,
    _surrogate,
    _target,
)
from tests.search.test_golden_equivalence import FIXTURES

GUARDABLE = ("rsp_clean", "rsp_faulted", "rsb_clean", "rsb_faulted")

#: the scenarios' pool, bare and with an enabled or disabled guard.
BARE = TunerSpec(pool=PoolSpec(size=POOL))
GUARDED = TunerSpec(pool=PoolSpec(size=POOL), guard=GuardPolicy())
DISABLED = TunerSpec(pool=PoolSpec(size=POOL), guard=GuardPolicy.disabled())


@pytest.fixture(scope="module")
def kernel():
    return _kernel()


@pytest.fixture(scope="module")
def faithful(kernel):
    return _surrogate(kernel, _source_training(kernel))


@pytest.fixture(scope="module")
def inverted(kernel):
    return _inverted_surrogate(kernel, _source_training(kernel))


# ----------------------------------------------------------------------
# 1. Inertness
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", GUARDABLE)
def test_disabled_guard_matches_golden(name):
    trace = SCENARIOS[name](spec=DISABLED)
    assert trace_to_dict(trace) == FIXTURES[name]


def test_trusted_guard_leaves_rsp_untouched(kernel, faithful):
    """A faithful source keeps the guard TRUSTED for the whole run, and
    a TRUSTED guard must not change a single byte of the trace."""
    bare = pruned_search(
        _target(kernel), _stream(kernel), faithful, nmax=12, spec=BARE
    )
    guarded = pruned_search(
        _target(kernel), _stream(kernel), faithful, nmax=12, spec=GUARDED
    )
    assert trace_to_dict(guarded) == trace_to_dict(bare)
    assert "guard" not in guarded.metadata


# ----------------------------------------------------------------------
# 2. Fallback behavior
# ----------------------------------------------------------------------
def _revocation_evaluation(trace):
    transitions = trace.metadata["guard"]["transitions"]
    return next(t["evaluation"] for t in transitions if t["to"] == "revoked")


def test_inverted_rsp_revokes_and_stops_pruning(kernel, inverted):
    trace = pruned_search(
        _target(kernel), _stream(kernel), inverted, nmax=12, spec=GUARDED
    )
    assert trace.metadata["guard"]["state"] == "revoked"
    rev = _revocation_evaluation(trace)
    # The record at index ``rev`` is the one whose observation tripped
    # the revocation; every record after it is admitted unconditionally.
    assert all(r.skipped_before == 0 for r in trace.records[rev + 1:])
    assert len(trace.records) > rev + 1


def test_inverted_rsb_falls_back_to_the_shared_stream(kernel, inverted):
    trace = biased_search(
        _target(kernel), kernel.space, inverted, nmax=16,
        stream=_stream(kernel), spec=GUARDED,
    )
    meta = trace.metadata["guard"]
    assert meta["state"] == "revoked"
    assert meta["fallback_proposals"] > 0
    rev = _revocation_evaluation(trace)
    tail = [r.config.index for r in trace.records[rev + 1:]]
    assert tail, "revocation must happen before the budget runs out"
    # The post-revocation evaluations are a contiguous run of shared-
    # stream positions — exactly what plain RS would evaluate next.
    stream = _stream(kernel)
    positions = [stream[i].index for i in range(300)]
    assert any(
        positions[s:s + len(tail)] == tail
        for s in range(len(positions) - len(tail) + 1)
    )


def test_inverted_hybrid_revokes(kernel, inverted):
    trace = hybrid_search(
        _target(kernel), kernel.space, inverted, nmax=16,
        stream=_stream(kernel), spec=GUARDED,
    )
    assert trace.metadata["guard"]["state"] == "revoked"


def test_suspect_phase_is_recorded_before_revocation(kernel, inverted):
    trace = biased_search(
        _target(kernel), kernel.space, inverted, nmax=16,
        stream=_stream(kernel), spec=GUARDED,
    )
    states = [t["to"] for t in trace.metadata["guard"]["transitions"]]
    assert states == ["suspect", "revoked"]  # hysteresis: no direct jump


# ----------------------------------------------------------------------
# 3. Checkpoint/resume durability
# ----------------------------------------------------------------------
def _guarded_scenario(variant, kernel, surrogate, **kw):
    if variant == "rsp":
        return pruned_search(
            _target(kernel), _stream(kernel), surrogate, nmax=12,
            spec=GUARDED, **kw
        )
    if variant == "rsb":
        return biased_search(
            _target(kernel), kernel.space, surrogate, nmax=16,
            stream=_stream(kernel), spec=GUARDED, **kw
        )
    return hybrid_search(
        _target(kernel), kernel.space, surrogate, nmax=16,
        stream=_stream(kernel), spec=GUARDED, **kw
    )


@pytest.mark.parametrize("variant", ["rsp", "rsb", "rspb"])
def test_killed_guarded_run_resumes_bit_identically(
    variant, kernel, inverted, tmp_path
):
    """Kill a guarded adversarial run mid-save and resume it: the final
    trace AND the final checkpointed guard state must match a run that
    was never interrupted."""
    continuous_path = tmp_path / f"{variant}_continuous.json"
    continuous = _guarded_scenario(
        variant, kernel, inverted,
        checkpoint=CheckpointManager(continuous_path, every=2),
    )
    killed_path = tmp_path / f"{variant}_killed.json"
    with pytest.raises(_Killed):
        _guarded_scenario(
            variant, kernel, inverted,
            checkpoint=_KillingManager(killed_path, every=2, kill_after=3),
        )
    mid = CheckpointManager(killed_path).load()
    assert mid is not None and mid.position > 0  # died mid-run
    resumed = _guarded_scenario(
        variant, kernel, inverted,
        checkpoint=CheckpointManager(killed_path, every=2),
    )
    assert trace_to_dict(resumed) == trace_to_dict(continuous)
    final_continuous = CheckpointManager(continuous_path).load()
    final_resumed = CheckpointManager(killed_path).load()
    assert final_resumed.extra["guard"] == final_continuous.extra["guard"]
    assert (
        final_resumed.extra["guard_positions"]
        == final_continuous.extra["guard_positions"]
    )


def test_guard_state_is_json_round_trippable(kernel, inverted, tmp_path):
    """The checkpointed guard payload survives an actual JSON encode/
    decode cycle (no tuples, sets, or numpy scalars hiding inside)."""
    path = tmp_path / "guard.json"
    _guarded_scenario(
        "rsb", kernel, inverted, checkpoint=CheckpointManager(path, every=2)
    )
    with open(path) as fh:
        payload, _framed = unframe_line(fh.read().splitlines()[-1])
    guard_state = payload["extra"]["guard"]
    assert guard_state["state"] == "revoked"
    assert json.loads(json.dumps(guard_state)) == guard_state


# ----------------------------------------------------------------------
# Wiring validation
# ----------------------------------------------------------------------
def test_enabled_guard_requires_stream_for_pool_rankers(kernel, faithful):
    with pytest.raises(SearchError):
        biased_search(
            _target(kernel), kernel.space, faithful, nmax=4, spec=GUARDED
        )
    with pytest.raises(SearchError):
        hybrid_search(
            _target(kernel), kernel.space, faithful, nmax=4, spec=GUARDED
        )


def test_disabled_guard_needs_no_stream(kernel, faithful):
    trace = biased_search(
        _target(kernel), kernel.space, faithful, nmax=4, spec=DISABLED
    )
    assert trace.n_evaluations == 4
