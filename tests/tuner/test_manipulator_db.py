"""Tests for the configuration manipulator and results database."""

import numpy as np
import pytest

from repro.errors import SearchSpaceError
from repro.miniapps import make_raytracer
from repro.searchspace import BooleanParameter, EnumParameter, IntegerParameter, SearchSpace
from repro.tuner.database import Result, ResultsDatabase
from repro.tuner.manipulator import ConfigurationManipulator


@pytest.fixture
def space():
    return SearchSpace(
        [
            IntegerParameter("u", 1, 16),
            EnumParameter("algo", ["a", "b", "c"]),
            BooleanParameter("flag"),
        ],
        name="tuner-space",
    )


@pytest.fixture
def manip(space):
    return ConfigurationManipulator(space)


class TestManipulator:
    def test_random_in_space(self, manip):
        rng = np.random.default_rng(0)
        for _ in range(20):
            cfg = manip.random(rng)
            assert cfg.space is manip.space

    def test_random_on_the_compiler_flag_space(self):
        # 247 flags and params: |D| is far beyond int64, where
        # rng.integers(0, |D|) raises "high is out of bounds".
        space = make_raytracer().space
        assert space.cardinality > 1 << 64
        manip = ConfigurationManipulator(space)
        rng = np.random.default_rng(0)
        indices = [manip.random(rng).index for _ in range(8)]
        assert all(0 <= i < space.cardinality for i in indices)
        assert len(set(indices)) == 8
        assert max(indices) > 1 << 64

    def test_mutate_changes_something(self, manip):
        rng = np.random.default_rng(1)
        base = manip.space.default()
        for _ in range(20):
            assert manip.mutate(base, rng) != base

    def test_mutate_rate_bounds(self, manip):
        with pytest.raises(SearchSpaceError):
            manip.mutate(manip.space.default(), np.random.default_rng(0), rate=0.0)

    def test_crossover_mixes_parents(self, manip):
        rng = np.random.default_rng(2)
        a = manip.space.configuration({"u": 1, "algo": "a", "flag": False})
        b = manip.space.configuration({"u": 16, "algo": "c", "flag": True})
        child = manip.crossover(a, b, rng)
        for name in ("u", "algo", "flag"):
            assert child[name] in (a[name], b[name])

    def test_crossover_foreign_parent_rejected(self, manip):
        other = SearchSpace([IntegerParameter("u", 1, 16)])
        with pytest.raises(SearchSpaceError):
            manip.crossover(
                manip.space.default(),
                other.default(),
                np.random.default_rng(0),
            )

    def test_neighbor_single_axis(self, manip):
        rng = np.random.default_rng(3)
        base = manip.space.configuration({"u": 8, "algo": "b", "flag": False})
        for _ in range(20):
            n = manip.neighbor(base, rng)
            diffs = [k for k in base if n[k] != base[k]]
            assert len(diffs) == 1


class TestDatabase:
    def _result(self, space, idx, value, technique="t"):
        return Result(space.config_at(idx), value, technique, elapsed=1.0)

    def test_dedup_lookup(self, space):
        db = ResultsDatabase()
        db.add(self._result(space, 0, 5.0))
        db.add(self._result(space, 0, 6.0))  # re-measured
        assert len(db.results()) == 2
        assert db.n_distinct == 1
        assert db.lookup(space.config_at(0)).value == 5.0  # first kept

    def test_has(self, space):
        db = ResultsDatabase()
        assert not db.has(space.config_at(3))
        db.add(self._result(space, 3, 1.0))
        assert db.has(space.config_at(3))
