"""Tests for the extension kernels (BICG, MVT, GEMVER)."""

import numpy as np
import pytest

from repro.kernels import KERNELS, get_kernel, kernel_names
from repro.machines import SANDYBRIDGE, WESTMERE
from repro.orio.evaluator import OrioEvaluator
from repro.orio.transforms.pipeline import TransformPlan, compose
from repro.orio.transforms.unroll import expand_all_unrolls
from repro.utils.rng import spawn_rng
from repro.utils.stats import spearman
from tests.orio.interp import run_nest

N = 6


def arrays_for(tag, seed=0):
    rng = np.random.default_rng(seed)
    vec = lambda: rng.normal(size=N)
    mat = lambda: rng.normal(size=N * N)
    if tag == "bicg":
        return {"A": mat(), "r": vec(), "p": vec(), "s": vec(), "q": vec()}
    if tag == "mvt":
        return {"A": mat(), "y1": vec(), "y2": vec(), "x1": vec(), "x2": vec()}
    return {"A": mat(), "B": mat(), "u1": vec(), "v1": vec(),
            "u2": vec(), "v2": vec(), "x": vec(), "y": vec()}


class TestRegistry:
    def test_extras_hidden_from_paper_list(self):
        assert kernel_names() == ["mm", "atax", "cor", "lu"]
        assert "bicg" in KERNELS

    @pytest.mark.parametrize("name", ["bicg", "mvt", "gemver"])
    def test_builds_and_parses(self, name):
        k = get_kernel(name, n=N)
        assert len(k.nests) == 1
        assert k.boundedness == "memory"


class TestSemantics:
    @pytest.mark.parametrize("name", ["bicg", "mvt", "gemver"])
    def test_transformations_preserve_semantics(self, name):
        k = get_kernel(name, n=N)
        nest = k.nests[0].nest
        plan = TransformPlan(
            tile={"i": 4, "j": 3},
            regtile={"j": 2},
            unroll={"i": 2},
        )
        variant = compose(nest, plan)
        ref = arrays_for(k.tag)
        run_nest(nest, ref)
        got = arrays_for(k.tag)
        run_nest(expand_all_unrolls(variant.nest), got)
        for arr in ref:
            np.testing.assert_allclose(got[arr], ref[arr], err_msg=arr)

    @pytest.mark.parametrize("name", ["bicg", "mvt", "gemver"])
    def test_evaluates_on_machines(self, name):
        k = get_kernel(name)  # full input size
        ev = OrioEvaluator(k, SANDYBRIDGE)
        m = ev.measure(k.space.default())
        assert m.runtime_seconds > 0

    @pytest.mark.parametrize("name", ["bicg", "mvt"])
    def test_intel_pair_correlated(self, name):
        k = get_kernel(name)
        rng = spawn_rng("extra-kernel", name)
        cfgs = k.space.sample(rng, 50)
        wm = [OrioEvaluator(k, WESTMERE).measure(c).runtime_seconds for c in cfgs]
        sb = [OrioEvaluator(k, SANDYBRIDGE).measure(c).runtime_seconds for c in cfgs]
        assert spearman(wm, sb) > 0.6  # the transfer premise extends
