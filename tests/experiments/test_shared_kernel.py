"""One SPAPT kernel per problem per process, checked against fresh kernels.

``build_problem`` hands every session of a SPAPT problem the same
kernel, so the kernel's metrics cache and shape plans outlive each
session.  The oracle here is the slow twin: the same session on a
kernel of its own from ``get_kernel``.  Whatever a shared kernel has
seen before, in whatever order, a session's traces must not move.
"""

import random

import pytest

from repro.experiments.harness import build_problem, build_session
from repro.kernels import get_kernel
from repro.machines import get_compiler, get_machine
from repro.service.worker import trace_digest
from repro.spec import TunerSpec
from repro.transfer.session import TransferSession

NMAX = 20
POOL = 500
SPAPT = ("MM", "ATAX", "LU", "COR")
PAIRS = (
    ("westmere", "sandybridge"),
    ("sandybridge", "power7"),
    ("power7", "xgene"),
    ("westmere", "power7"),
)


def _digests(outcome) -> dict[str, str]:
    return {
        "RS(source)": trace_digest(outcome.source_trace),
        **{name: trace_digest(t) for name, t in outcome.traces.items()},
    }


def _fresh_twin(problem, source, target, seed) -> TransferSession:
    """The session ``build_session`` builds, on a kernel of its own."""
    return TransferSession(
        kernel=get_kernel(problem),
        source=get_machine(source),
        target=get_machine(target),
        compiler=get_compiler("gcc"),
        nmax=NMAX,
        seed=(problem, str(seed)),
        spec=TunerSpec().with_value("pool.size", POOL),
    )


def test_spapt_problems_share_one_kernel():
    kernel = build_problem("LU")[0]
    assert build_problem(" lu ")[0] is kernel
    assert build_session("lu", "westmere", "sandybridge", nmax=4).kernel is kernel
    assert build_problem("MM")[0] is not kernel
    assert get_kernel("lu") is not kernel  # get_kernel still builds afresh


@pytest.mark.parametrize("problem", ["HPL", "RT"])
def test_miniapps_get_a_fresh_model_each_call(problem):
    assert build_problem(problem)[0] is not build_problem(problem)[0]


@pytest.mark.parametrize("order_seed", [0, 1])
def test_shared_kernel_sessions_match_fresh_kernel_sessions(order_seed):
    rng = random.Random(f"shared-kernel/{order_seed}")
    cells = [
        (problem, *pair, seed)
        for problem in SPAPT for pair in PAIRS for seed in range(2)
    ]
    # A random order over mixed problems, pairs and seeds, each problem
    # several times, so every shared kernel carries state between them.
    for problem, source, target, seed in rng.sample(cells, 16):
        shared = build_session(problem, source, target, seed=seed,
                               nmax=NMAX, pool_size=POOL)
        assert shared.kernel is build_problem(problem)[0]
        fresh = _fresh_twin(problem, source, target, seed)
        assert _digests(shared.run()) == _digests(fresh.run()), (problem, source, target, seed)
