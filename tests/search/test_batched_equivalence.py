"""Block execution is invisible in results.

The engine's block size (``spec.engine.batch_size``, which every
factory hands to ``SearchEngine(batch_size=...)``) is an execution
strategy, not an algorithm change: for every variant and
every batch size — including the degenerate ``batch_size=1`` — traces
must be byte-identical to the golden fixtures, checkpoints written
mid-run must be byte-identical files, and a run killed in the middle of
a block must resume to the same golden trace.  Guarded runs whose guard
actually intervenes (SUSPECT widening, REVOKED fallback) must also be
unchanged: an armed guard hands out blocks of one.

The fixtures for the hybrid and the intervening guarded runs
(``rspb_clean``, ``guarded_*_inverted``) and the killed-checkpoint
digests in ``golden/checkpoints.json`` were recorded by the engine's
former serial loop, one proposal per iteration, before it was removed.
"""

import json
import os

import pytest

from repro.reliability import CheckpointManager, trace_to_dict
from repro.search.pruning import pruned_search
from repro.spec import EngineSpec, PoolSpec, TunerSpec
from repro.transfer.guard import GuardPolicy

from tests.search.golden_scenarios import (
    CHECKPOINT_DIGESTED,
    CHECKPOINTABLE,
    POOL,
    SCENARIOS,
    _kernel,
    _Killed,
    _KillingManager,
    _source_training,
    _stream,
    _surrogate,
    _target,
    killed_checkpoint_digest,
)
from tests.search.test_golden_equivalence import FIXTURES

CHECKPOINT_DIGESTS_PATH = os.path.join(
    os.path.dirname(__file__), "golden", "checkpoints.json"
)

with open(CHECKPOINT_DIGESTS_PATH) as _fh:
    CHECKPOINT_DIGESTS = json.load(_fh)

# Factory-backed scenarios covering the paper's five variants and SMBO
# (the hybrid and the guarded runs have their own tests below).  The
# block size reaches each scenario as ``spec=_batched(size)``.
BATCHABLE = (
    "rs_clean",
    "rs_faulted",
    "rs_budget",
    "rsp_clean",
    "rsp_faulted",
    "rsb_clean",
    "rsb_faulted",
    "rsb_budget",
    "rspf_clean",
    "rspf_faulted",
    "rsbf_clean",
    "rsbf_faulted",
    "smbo_cold",
    "smbo_transfer",
    "smbo_faulted",
)

BATCH_SIZES = (1, 3, 64)


def _batched(batch):
    return TunerSpec().with_value("engine.batch_size", batch)


@pytest.fixture(scope="module")
def kernel():
    return _kernel()


@pytest.fixture(scope="module")
def surrogate(kernel):
    return _surrogate(kernel, _source_training(kernel))


# ----------------------------------------------------------------------
# Trace identity across batch sizes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", BATCHABLE)
@pytest.mark.parametrize("batch", BATCH_SIZES)
def test_batched_trace_matches_golden(name, batch):
    trace = SCENARIOS[name](spec=_batched(batch))
    assert trace_to_dict(trace) == FIXTURES[name]


@pytest.mark.parametrize("name", BATCHABLE)
def test_serial_trace_matches_golden(name):
    """A wire-format spec asking for the former serial loop — blocks
    of one — reproduces every golden trace through the factories'
    ``spec=``."""
    spec = TunerSpec.from_dict({"version": 2, "engine": {"batch_size": 1}})
    trace = SCENARIOS[name](spec=spec)
    assert trace_to_dict(trace) == FIXTURES[name]


@pytest.mark.parametrize("batch", BATCH_SIZES)
def test_hybrid_rspb_batched_matches_serial(batch):
    trace = SCENARIOS["rspb_clean"](spec=_batched(batch))
    assert trace_to_dict(trace) == FIXTURES["rspb_clean"]


# ----------------------------------------------------------------------
# Checkpoints: same bytes mid-run, same resume
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", CHECKPOINT_DIGESTED)
def test_mid_batch_checkpoint_bytes_match_serial(name, tmp_path):
    """Kill the run at its third periodic save; the checkpoint file —
    position, clock, trace records, proposer extra — must be the bytes
    the serial loop wrote, even though the kill lands mid-block."""
    for batch in (1, 5):
        directory = tmp_path / str(batch)
        directory.mkdir()
        digest = killed_checkpoint_digest(
            name, directory, spec=_batched(batch)
        )
        assert digest == CHECKPOINT_DIGESTS[name], batch


@pytest.mark.parametrize("name", CHECKPOINTABLE)
@pytest.mark.parametrize("batch", (1, 5))
def test_killed_mid_batch_resumes_to_golden(name, batch, tmp_path):
    path = tmp_path / f"{name}.json"
    with pytest.raises(_Killed):
        SCENARIOS[name](
            checkpoint=_KillingManager(path, every=2, kill_after=3),
            spec=_batched(batch),
        )
    killed = CheckpointManager(path).load()
    assert killed is not None and killed.position > 0
    resumed = SCENARIOS[name](
        checkpoint=CheckpointManager(path, every=2), spec=_batched(batch)
    )
    assert trace_to_dict(resumed) == FIXTURES[name]


# ----------------------------------------------------------------------
# Guarded runs: interventions unchanged by batching
# ----------------------------------------------------------------------
def _assert_guarded_golden(name):
    for batch in BATCH_SIZES:
        trace = SCENARIOS[name](spec=_batched(batch))
        assert trace_to_dict(trace) == FIXTURES[name], batch


def test_guarded_rsp_intervening_matches_serial():
    assert FIXTURES["guarded_rsp_inverted"]["metadata"]["guard"]["state"] == "revoked"
    _assert_guarded_golden("guarded_rsp_inverted")


def test_guarded_rsb_intervening_matches_serial():
    guard = FIXTURES["guarded_rsb_inverted"]["metadata"]["guard"]
    assert guard["state"] == "revoked"
    assert guard["fallback_proposals"] > 0
    _assert_guarded_golden("guarded_rsb_inverted")


def test_guarded_rspb_intervening_matches_serial():
    guard = FIXTURES["guarded_rspb_inverted"]["metadata"]["guard"]
    assert guard["state"] in ("suspect", "revoked")
    _assert_guarded_golden("guarded_rspb_inverted")


def test_trusted_guard_batched_matches_golden(kernel, surrogate):
    """A faithful surrogate keeps the guard TRUSTED; the batched run
    must still match the unguarded golden fixture byte for byte."""
    spec = TunerSpec(
        pool=PoolSpec(size=POOL), engine=EngineSpec(batch_size=64),
        guard=GuardPolicy(),
    )
    trace = pruned_search(
        _target(kernel), _stream(kernel), surrogate, nmax=12, spec=spec
    )
    assert trace_to_dict(trace) == FIXTURES["rsp_clean"]
