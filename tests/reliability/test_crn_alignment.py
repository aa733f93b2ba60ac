"""Common random numbers survive faults and checkpoint/resume.

The paper's variance-reduction design (Section IV-D) only works if
every search variant walks the *same* configuration sequence.  Fault
injection and recovery must therefore never consume stream positions or
generator state: a failed evaluation occupies exactly the position its
configuration was drawn at, and a resumed search replays the identical
sequence.
"""

import pytest

from repro.machines import SANDYBRIDGE
from repro.orio.evaluator import OrioEvaluator
from repro.perf.simclock import SimClock
from repro.reliability import (
    CheckpointManager,
    FaultSpec,
    FaultyEvaluator,
    ResilientEvaluator,
    RetryPolicy,
)
from repro.search.biasing import biased_search
from repro.search.pruning import pruned_search
from repro.search.random_search import random_search
from repro.search.stream import SharedStream
from repro.spec import PoolSpec, TunerSpec


def _pool(size):
    """The default spec with a pool of ``size`` configurations."""
    return TunerSpec(pool=PoolSpec(size=size))


def _resilient(kernel, rate, seed="crn", retries=3):
    return ResilientEvaluator(
        FaultyEvaluator(
            OrioEvaluator(kernel, SANDYBRIDGE, clock=SimClock()),
            FaultSpec.uniform(rate, seed=seed),
        ),
        retry=RetryPolicy(max_retries=retries),
    )


def _indices(trace):
    return [r.config.index for r in trace.records]


class TestFaultsPreserveAlignment:
    def test_rs_walks_the_same_stream_with_and_without_faults(self, kernel,
                                                              make_target):
        clean = random_search(
            make_target(), SharedStream(kernel.space, seed="a"), nmax=30
        )
        faulty = random_search(
            _resilient(kernel, 0.20), SharedStream(kernel.space, seed="a"), nmax=30
        )
        assert _indices(faulty) == _indices(clean)
        assert _indices(faulty) == [
            c.index for c in SharedStream(kernel.space, seed="a").prefix(30)
        ]

    def test_rsp_prunes_identically_under_faults(self, kernel, surrogate,
                                                 make_target):
        clean = pruned_search(
            make_target(), SharedStream(kernel.space, seed="a"), surrogate,
            nmax=10, spec=_pool(200),
        )
        faulty = pruned_search(
            _resilient(kernel, 0.20), SharedStream(kernel.space, seed="a"),
            surrogate, nmax=10, spec=_pool(200),
        )
        # Pruning decisions depend only on the (shared) model, so the
        # evaluated configurations and skip counts stay identical.
        assert _indices(faulty) == _indices(clean)
        assert [r.skipped_before for r in faulty.records] == [
            r.skipped_before for r in clean.records
        ]
        assert faulty.metadata["stream_positions"] == clean.metadata["stream_positions"]

    def test_rsb_pool_order_identical_under_faults(self, kernel, surrogate,
                                                   make_target):
        clean = biased_search(
            make_target(), kernel.space, surrogate, nmax=20, spec=_pool(300)
        )
        faulty = biased_search(
            _resilient(kernel, 0.20), kernel.space, surrogate, nmax=20,
            spec=_pool(300),
        )
        assert _indices(faulty) == _indices(clean)

    def test_rsp_positions_embed_in_the_rs_stream(self, kernel, surrogate,
                                                  make_target):
        rsp = pruned_search(
            _resilient(kernel, 0.20), SharedStream(kernel.space, seed="a"),
            surrogate, nmax=10, spec=_pool(200),
        )
        stream = SharedStream(kernel.space, seed="a")
        prefix = stream.prefix(rsp.metadata["stream_positions"])
        position = -1
        for record in rsp.records:
            position += record.skipped_before + 1
            assert prefix[position].index == record.config.index

    def test_fault_decisions_consume_no_stream_state(self, kernel):
        # Drawing thousands of fault decisions must not perturb a
        # stream materialized afterwards.
        from repro.reliability import FaultInjector

        before = SharedStream(kernel.space, seed="z").prefix(20)
        injector = FaultInjector(FaultSpec.uniform(0.5, seed="z"))
        for i in range(5000):
            injector.draw(i, 0)
        after = SharedStream(kernel.space, seed="z").prefix(20)
        assert [c.index for c in before] == [c.index for c in after]


class TestResumePreservesAlignment:
    def test_interrupted_rsb_finds_the_same_best(self, tmp_path, kernel,
                                                 surrogate):
        reference = biased_search(
            _resilient(kernel, 0.10, seed="resume"), kernel.space, surrogate,
            nmax=20, spec=_pool(300),
        )
        manager = CheckpointManager(tmp_path / "rsb.json", every=5)
        biased_search(
            _resilient(kernel, 0.10, seed="resume"), kernel.space, surrogate,
            nmax=9, spec=_pool(300), checkpoint=manager,
        )
        resumed = biased_search(
            _resilient(kernel, 0.10, seed="resume"), kernel.space, surrogate,
            nmax=20, spec=_pool(300), checkpoint=manager,
        )
        assert _indices(resumed) == _indices(reference)
        assert resumed.best().config.index == reference.best().config.index
        assert resumed.best_runtime == pytest.approx(reference.best_runtime)

    def test_resumed_stream_rematerializes_identically(self, kernel):
        full = SharedStream(kernel.space, seed="s").prefix(50)
        rebuilt = SharedStream(kernel.space, seed="s")
        rebuilt.prefix(17)  # checkpoint position
        assert rebuilt.materialized >= 17
        resumed = rebuilt.prefix(50)
        assert [c.index for c in resumed] == [c.index for c in full]
