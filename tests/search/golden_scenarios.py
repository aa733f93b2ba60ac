"""Golden-trace scenario definitions for the engine refactor.

Each scenario builds every object it needs from scratch (fresh clocks,
fresh streams, fresh evaluators) and runs exactly one search, so a
scenario is a pure function of the code under test.  The fixtures in
``tests/search/golden/traces.json`` were generated by running these
scenarios against the pre-engine implementations (the five hand-rolled
loops plus ``smbo_search``, the technique runner and
``warm_started_search``; the ``tuner_*`` scenarios now run through
``warm_started_search(seed_evaluations=0)``);
``test_golden_equivalence.py`` replays them against the engine-backed
implementations and requires byte-identical traces.  The hybrid
(``rspb_clean``) and guarded (``guarded_*_inverted``) scenarios, and
the killed-checkpoint digests in ``golden/checkpoints.json``, came later:
they were recorded by the engine's serial loop before the block loop
became its only loop.  The online RSb scenarios (``online_rsb*``) were
recorded from its hand-rolled loop before it became an engine proposer.
The whole-session digests in ``golden/sessions.json``
(``session_digests``: one small transfer session per problem of the
evaluation) came later still; they pin the SPAPT, HPL and RT
evaluators, not only LU.

Regenerate with ``PYTHONPATH=src python tests/search/golden/generate.py``
— but only from a commit whose implementations are already known-good,
otherwise the equivalence guarantee is meaningless.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os

from repro.experiments.harness import PROBLEMS, build_session
from repro.kernels import get_kernel
from repro.machines import SANDYBRIDGE, WESTMERE
from repro.orio.evaluator import OrioEvaluator
from repro.perf.simclock import SimClock
from repro.reliability import (
    CheckpointManager,
    FaultSpec,
    FaultyEvaluator,
    ResilientEvaluator,
    RetryPolicy,
)
from repro.search.biasing import biased_search, hybrid_search
from repro.search.model_free import (
    model_free_biased_search,
    model_free_pruned_search,
)
from repro.search.pruning import pruned_search
from repro.search.random_search import random_search
from repro.search.stream import SharedStream
from repro.service import trace_digest
from repro.spec import resolve_spec
from repro.transfer.guard import GuardPolicy
from repro.transfer.online import online_biased_search
from repro.transfer.smbo import smbo_search
from repro.transfer.surrogate import Surrogate
from repro.tuner import GeneticAlgorithm, RandomTechnique, warm_started_search

STREAM_SEED = "golden"
NMAX = 24
POOL = 240
# Spec knobs the model-guided scenarios set (dotted spec paths).
POOL_KNOBS = {"pool.size": POOL}
SMBO_KNOBS = {"smbo.n_initial": 5, "smbo.pool_size": 200}

# Whole-session goldens: small enough that RT's big-integer pool encode
# stays cheap, large enough that every variant fits and ranks a pool.
SESSION_NMAX = 20
SESSION_POOL = 500

# Mid-run budget walls, chosen so the budgeted scenarios exhaust after
# at least one but fewer than nmax evaluations (asserted by the tests).
RS_BUDGET_SECONDS = 150.0
RSB_BUDGET_SECONDS = 8.0


def _kernel():
    return get_kernel("lu", n=128)


def _target(kernel, budget=None):
    return OrioEvaluator(kernel, SANDYBRIDGE, clock=SimClock(budget))


def _faulty_target(kernel, rate=0.15, retries=1, spec=None):
    return ResilientEvaluator(
        FaultyEvaluator(
            _target(kernel),
            spec if spec is not None
            else FaultSpec.uniform(rate, seed="golden-faults"),
        ),
        retry=RetryPolicy(max_retries=retries),
    )


def _stream(kernel):
    return SharedStream(kernel.space, seed=STREAM_SEED)


def _source_training(kernel):
    ev = OrioEvaluator(kernel, WESTMERE, clock=SimClock())
    trace = random_search(ev, _stream(kernel), nmax=50, name="RS(source)")
    return trace.training_data()


def _surrogate(kernel, training):
    return Surrogate(kernel.space).fit(training)


def _spec(spec, knobs, guard=None):
    """The caller's spec (default: the default spec) with this
    scenario's ``knobs`` (dotted spec paths) set and ``guard`` armed."""
    spec = resolve_spec(spec)
    for path, value in knobs.items():
        spec = spec.with_value(path, value)
    return spec if guard is None else dataclasses.replace(spec, guard=guard)


def _inverted_surrogate(kernel, training):
    """A surrogate fitted on mirrored source runtimes: it ranks the best
    configurations worst, so an armed guard must intervene."""
    runtimes = [y for _, y in training]
    lo, hi = min(runtimes), max(runtimes)
    return _surrogate(kernel, [(c, lo + hi - y) for c, y in training])


# ----------------------------------------------------------------------
# Scenarios: name -> zero-argument callable returning a SearchTrace.
# ``spec=`` overlays the scenario's own knobs (its pool, its SMBO
# design) on a caller's spec — the batch-size tests set
# ``engine.batch_size`` that way.  Other keyword arguments
# (checkpoint=...) are threaded through so the resume tests can re-run
# any checkpointable scenario with a manager attached.
# ----------------------------------------------------------------------
def rs_clean(spec=None, **kw):
    k = _kernel()
    return random_search(_target(k), _stream(k), nmax=NMAX, spec=spec, **kw)


def rs_faulted(spec=None, **kw):
    k = _kernel()
    return random_search(
        _faulty_target(k), _stream(k), nmax=NMAX, spec=spec, **kw
    )


def rs_budget(spec=None, **kw):
    k = _kernel()
    return random_search(
        _target(k, budget=RS_BUDGET_SECONDS), _stream(k), nmax=NMAX,
        spec=spec, **kw
    )


def rsp_clean(spec=None, **kw):
    k = _kernel()
    training = _source_training(k)
    return pruned_search(
        _target(k), _stream(k), _surrogate(k, training),
        nmax=12, spec=_spec(spec, POOL_KNOBS), **kw
    )


def rsp_faulted(spec=None, **kw):
    k = _kernel()
    training = _source_training(k)
    return pruned_search(
        _faulty_target(k), _stream(k), _surrogate(k, training),
        nmax=12, spec=_spec(spec, POOL_KNOBS), **kw
    )


def rsb_clean(spec=None, **kw):
    k = _kernel()
    training = _source_training(k)
    return biased_search(
        _target(k), k.space, _surrogate(k, training),
        nmax=16, spec=_spec(spec, POOL_KNOBS), **kw
    )


def rsb_faulted(spec=None, **kw):
    k = _kernel()
    training = _source_training(k)
    return biased_search(
        _faulty_target(k), k.space, _surrogate(k, training),
        nmax=16, spec=_spec(spec, POOL_KNOBS), **kw
    )


def rsb_budget(spec=None, **kw):
    k = _kernel()
    training = _source_training(k)
    return biased_search(
        _target(k, budget=RSB_BUDGET_SECONDS), k.space, _surrogate(k, training),
        nmax=16, spec=_spec(spec, POOL_KNOBS), **kw
    )


def rspb_clean(spec=None, **kw):
    k = _kernel()
    training = _source_training(k)
    return hybrid_search(
        _target(k), k.space, _surrogate(k, training),
        nmax=16, spec=_spec(spec, POOL_KNOBS), **kw
    )


def rspf_clean(spec=None, **kw):
    k = _kernel()
    return model_free_pruned_search(
        _target(k), _source_training(k), nmax=100, spec=spec, **kw
    )


def rspf_faulted(spec=None, **kw):
    k = _kernel()
    return model_free_pruned_search(
        _faulty_target(k), _source_training(k), nmax=100, spec=spec, **kw
    )


def rsbf_clean(spec=None, **kw):
    k = _kernel()
    return model_free_biased_search(
        _target(k), _source_training(k), nmax=30, spec=spec, **kw
    )


def rsbf_faulted(spec=None, **kw):
    k = _kernel()
    return model_free_biased_search(
        _faulty_target(k), _source_training(k), nmax=30, spec=spec, **kw
    )


def smbo_cold(spec=None, **kw):
    k = _kernel()
    return smbo_search(
        _target(k), k.space, nmax=18, seed=0, spec=_spec(spec, SMBO_KNOBS),
        **kw
    )


def smbo_transfer(spec=None, **kw):
    k = _kernel()
    training = _source_training(k)
    return smbo_search(
        _target(k), k.space, nmax=18,
        source_surrogate=_surrogate(k, training), source_data=training,
        seed=0, spec=_spec(spec, SMBO_KNOBS), **kw
    )


def smbo_faulted(spec=None, **kw):
    # Transient-only faults: retries recover every measurement, so the
    # trace stays clean but the charged backoff shifts every elapsed.
    k = _kernel()
    return smbo_search(
        _faulty_target(k, retries=3,
                       spec=FaultSpec(transient_rate=0.2, seed="golden-faults")),
        k.space, nmax=18, seed=0, spec=_spec(spec, SMBO_KNOBS), **kw
    )


def tuner_random_clean(spec=None, **kw):
    k = _kernel()
    return warm_started_search(
        _target(k), k.space, RandomTechnique(seed=3), nmax=15,
        seed_evaluations=0, spec=spec, **kw
    )


def tuner_ga_clean(spec=None, **kw):
    k = _kernel()
    return warm_started_search(
        _target(k), k.space, GeneticAlgorithm(population_size=8, seed=3),
        nmax=15, seed_evaluations=0, spec=spec, **kw
    )


def tuner_ga_faulted(spec=None, **kw):
    k = _kernel()
    return warm_started_search(
        _faulty_target(k), k.space, GeneticAlgorithm(population_size=8, seed=3),
        nmax=15, seed_evaluations=0, spec=spec, **kw
    )


def warm_ga_cold(spec=None, **kw):
    k = _kernel()
    return warm_started_search(
        _target(k), k.space, GeneticAlgorithm(population_size=8, seed=3),
        surrogate=None, nmax=15, seed_evaluations=0, spec=spec, **kw
    )


def warm_ga_warm(spec=None, **kw):
    k = _kernel()
    training = _source_training(k)
    return warm_started_search(
        _target(k), k.space, GeneticAlgorithm(population_size=8, seed=3),
        surrogate=_surrogate(k, training), nmax=15, seed_evaluations=5,
        spec=_spec(spec, POOL_KNOBS), **kw
    )


def online_rsb(spec=None, **kw):
    k = _kernel()
    return online_biased_search(
        _target(k), k.space, _source_training(k), nmax=16,
        spec=_spec(spec, POOL_KNOBS), **kw
    )


def online_rsb_refit(spec=None, **kw):
    k = _kernel()
    return online_biased_search(
        _target(k), k.space, _source_training(k), nmax=16, refit_every=5,
        spec=_spec(spec, POOL_KNOBS), **kw
    )


# Guarded runs against the inverted surrogate: the guard turns SUSPECT
# and then REVOKED mid-run, so these pin the interventions themselves
# (widening, audits, fallback to the shared stream).
def guarded_rsp_inverted(spec=None, **kw):
    k = _kernel()
    return pruned_search(
        _target(k), _stream(k), _inverted_surrogate(k, _source_training(k)),
        nmax=12, spec=_spec(spec, POOL_KNOBS, GuardPolicy()), **kw
    )


def guarded_rsb_inverted(spec=None, **kw):
    k = _kernel()
    return biased_search(
        _target(k), k.space, _inverted_surrogate(k, _source_training(k)),
        nmax=16, stream=_stream(k),
        spec=_spec(spec, POOL_KNOBS, GuardPolicy()), **kw
    )


def guarded_rspb_inverted(spec=None, **kw):
    k = _kernel()
    return hybrid_search(
        _target(k), k.space, _inverted_surrogate(k, _source_training(k)),
        nmax=16, stream=_stream(k),
        spec=_spec(spec, POOL_KNOBS, GuardPolicy()), **kw
    )


SCENARIOS = {
    "rs_clean": rs_clean,
    "rs_faulted": rs_faulted,
    "rs_budget": rs_budget,
    "rsp_clean": rsp_clean,
    "rsp_faulted": rsp_faulted,
    "rsb_clean": rsb_clean,
    "rsb_faulted": rsb_faulted,
    "rsb_budget": rsb_budget,
    "rspb_clean": rspb_clean,
    "rspf_clean": rspf_clean,
    "rspf_faulted": rspf_faulted,
    "rsbf_clean": rsbf_clean,
    "rsbf_faulted": rsbf_faulted,
    "smbo_cold": smbo_cold,
    "smbo_transfer": smbo_transfer,
    "smbo_faulted": smbo_faulted,
    "tuner_random_clean": tuner_random_clean,
    "tuner_ga_clean": tuner_ga_clean,
    "tuner_ga_faulted": tuner_ga_faulted,
    "warm_ga_cold": warm_ga_cold,
    "warm_ga_warm": warm_ga_warm,
    "guarded_rsp_inverted": guarded_rsp_inverted,
    "guarded_rsb_inverted": guarded_rsb_inverted,
    "guarded_rspb_inverted": guarded_rspb_inverted,
    "online_rsb": online_rsb,
    "online_rsb_refit": online_rsb_refit,
}


def session_digests(problem):
    """``trace_digest`` of the source trace and of every variant of one
    small westmere -> sandybridge transfer session on ``problem``."""
    outcome = build_session(
        problem, "westmere", "sandybridge", seed=0,
        nmax=SESSION_NMAX, pool_size=SESSION_POOL,
    ).run()
    return {
        "RS(source)": trace_digest(outcome.source_trace),
        **{name: trace_digest(t) for name, t in outcome.traces.items()},
    }


# Scenarios that accept a ``checkpoint=CheckpointManager`` keyword; the
# resume tests kill these at half budget and replay to completion.
CHECKPOINTABLE = (
    "rs_clean",
    "rs_faulted",
    "rsp_clean",
    "rsp_faulted",
    "rsb_clean",
    "rsb_faulted",
)

# Scenarios whose checkpoint file, as it stands when the run is killed
# at its third periodic save, is pinned by SHA-256 digest in
# ``golden/checkpoints.json``.
CHECKPOINT_DIGESTED = CHECKPOINTABLE + ("guarded_rsp_inverted",)


class _Killed(Exception):
    """Simulated crash raised from inside a checkpoint save."""


class _KillingManager(CheckpointManager):
    """A manager that crashes the run right after its Nth save."""

    def __init__(self, path, *, every, kill_after):
        super().__init__(path, every=every)
        self._saves = 0
        self._kill_after = kill_after

    def maybe_save(self, trace, position, evaluator=None, extra=None):
        saved = super().maybe_save(
            trace, position, evaluator=evaluator, extra=extra
        )
        if saved:
            self._saves += 1
            if self._saves >= self._kill_after:
                raise _Killed(f"simulated crash after save #{self._saves}")
        return saved


def killed_checkpoint_digest(name, directory, **kw):
    """Run scenario ``name`` under a manager saving every 2 evaluations,
    kill it at the third save, and return the SHA-256 hex digest of the
    checkpoint file it leaves behind."""
    path = os.path.join(directory, f"{name}.json")
    try:
        SCENARIOS[name](
            checkpoint=_KillingManager(path, every=2, kill_after=3), **kw
        )
    except _Killed:
        pass
    else:
        raise AssertionError(f"scenario {name} finished before its third save")
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()
