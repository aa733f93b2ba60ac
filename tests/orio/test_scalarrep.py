"""Tests for the scalar-replacement transform."""

import numpy as np
import pytest

from repro.errors import TransformError
from repro.orio.ast import Assign, ForLoop, Var, loop_chain
from repro.orio.codegen import generate_c
from repro.orio.parser import parse_loop_nest
from repro.orio.transforms.scalarrep import ScalarReplacement, replaceable_targets
from tests.orio.interp import run_nest

N = 7

MM_SRC = """
for (i = 0; i <= N-1; i++)
  for (j = 0; j <= N-1; j++)
    for (k = 0; k <= N-1; k++)
      C[i*N+j] = C[i*N+j] + A[i*N+k] * B[k*N+j];
"""

ATAX1_SRC = """
for (i = 0; i <= N-1; i++)
  for (j = 0; j <= N-1; j++)
    t[i] = t[i] + A[i*N+j] * x[j];
"""


def mm_arrays(seed=0):
    rng = np.random.default_rng(seed)
    return {"A": rng.normal(size=N * N), "B": rng.normal(size=N * N),
            "C": rng.normal(size=N * N)}


class TestDetection:
    def test_mm_inner_target_detected(self):
        nest = parse_loop_nest(MM_SRC, consts={"N": N})
        innermost = loop_chain(nest)[-1]
        targets = replaceable_targets(innermost)
        assert len(targets) == 1
        assert targets[0].name == "C"

    def test_loop_variant_target_not_detected(self):
        # y[j] varies with the innermost loop: not promotable there.
        src = "for (i = 0; i < 4; i++) for (j = 0; j < 4; j++) y[j] = y[j] + 1;"
        nest = parse_loop_nest(src)
        assert replaceable_targets(loop_chain(nest)[-1]) == []

    def test_multiple_writes_to_same_array_skipped(self):
        src = """
        for (i = 0; i < 4; i++)
          for (j = 0; j < 4; j++) {
            y[0] = y[0] + 1;
            y[1] = y[1] + 2;
          }
        """
        nest = parse_loop_nest(src)
        assert replaceable_targets(loop_chain(nest)[-1]) == []


class TestTransformation:
    def test_structure(self):
        nest = parse_loop_nest(MM_SRC, consts={"N": N})
        out = ScalarReplacement().apply(nest)
        j_loop = loop_chain(out)[1]
        # j's body is now: load, k-loop, store.
        assert len(j_loop.body) == 3
        load, k_loop, store = j_loop.body
        assert isinstance(load, Assign) and isinstance(load.target, Var)
        assert isinstance(k_loop, ForLoop)
        assert isinstance(store, Assign) and store.target.name == "C"

    def test_mm_equivalence(self):
        nest = parse_loop_nest(MM_SRC, consts={"N": N})
        out = ScalarReplacement().apply(nest)
        ref = mm_arrays()
        run_nest(nest, ref)
        got = mm_arrays()
        run_nest(out, got)
        np.testing.assert_allclose(got["C"], ref["C"])

    def test_atax_phase_equivalence(self):
        nest = parse_loop_nest(ATAX1_SRC, consts={"N": N})
        out = ScalarReplacement().apply(nest)
        rng = np.random.default_rng(1)
        ref = {"A": rng.normal(size=N * N), "x": rng.normal(size=N), "t": np.zeros(N)}
        got = {k: v.copy() for k, v in ref.items()}
        run_nest(nest, ref)
        run_nest(out, got)
        np.testing.assert_allclose(got["t"], ref["t"])

    def test_generated_code_uses_scalar(self):
        nest = parse_loop_nest(MM_SRC, consts={"N": N})
        out = ScalarReplacement().apply(nest)
        code = generate_c(out)
        assert "scr0 = C[" in code  # preheader load
        assert "scr0 = scr0 +" in code  # register accumulation

    def test_noop_when_nothing_replaceable(self):
        src = "for (i = 0; i < 4; i++) for (j = 0; j < 4; j++) y[j] = y[j] + 1;"
        nest = parse_loop_nest(src)
        t = ScalarReplacement()
        assert t.apply(nest) is nest
        assert t.n_replaced == 0

    def test_fresh_scalar_names_avoid_collisions(self):
        src = """
        for (scr0 = 0; scr0 < 4; scr0++)
          for (j = 0; j < 4; j++)
            y[scr0] = y[scr0] + j;
        """
        nest = parse_loop_nest(src)
        out = ScalarReplacement().apply(nest)
        code = generate_c(out)
        assert "scr0_" in code  # renamed around the existing loop variable

    def test_single_loop_rejected(self):
        nest = parse_loop_nest("for (i = 0; i < 4; i++) y[0] = y[0] + 1;")
        with pytest.raises(TransformError):
            ScalarReplacement().apply(nest)
