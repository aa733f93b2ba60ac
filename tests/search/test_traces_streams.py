"""Tests for search traces and shared streams."""

import numpy as np
import pytest

from repro.errors import SearchError
from repro.search.result import EvaluationRecord, SearchTrace
from repro.search.stream import SharedStream
from repro.searchspace import IntegerParameter, SearchSpace


@pytest.fixture
def space():
    return SearchSpace([IntegerParameter("a", 0, 9), IntegerParameter("b", 0, 9)], name="s")


def record(space, idx, runtime, elapsed):
    return EvaluationRecord(config=space.config_at(idx), runtime=runtime, elapsed=elapsed)


class TestSearchTrace:
    def test_best_tracking(self, space):
        t = SearchTrace("RS")
        t.add(record(space, 0, 5.0, 1.0))
        t.add(record(space, 1, 3.0, 2.0))
        t.add(record(space, 2, 4.0, 3.0))
        assert t.best_runtime == 3.0
        assert t.time_of_best() == 2.0

    def test_time_to_reach(self, space):
        t = SearchTrace("RS")
        t.add(record(space, 0, 5.0, 1.0))
        t.add(record(space, 1, 3.0, 2.0))
        assert t.time_to_reach(5.0) == 1.0
        assert t.time_to_reach(3.5) == 2.0
        assert t.time_to_reach(1.0) is None

    def test_best_so_far_is_improvements_only(self, space):
        t = SearchTrace("RS")
        for i, (rt, el) in enumerate([(5.0, 1.0), (6.0, 2.0), (2.0, 3.0), (4.0, 4.0)]):
            t.add(record(space, i, rt, el))
        xs, ys = t.best_so_far()
        np.testing.assert_array_equal(xs, [1.0, 3.0])
        np.testing.assert_array_equal(ys, [5.0, 2.0])

    def test_records_must_be_time_ordered(self, space):
        t = SearchTrace("RS")
        t.add(record(space, 0, 5.0, 2.0))
        with pytest.raises(SearchError):
            t.add(record(space, 1, 4.0, 1.0))

    def test_empty_trace_best_raises(self):
        with pytest.raises(SearchError):
            SearchTrace("RS").best()

    def test_training_data(self, space):
        t = SearchTrace("RS")
        t.add(record(space, 3, 5.0, 1.0))
        data = t.training_data()
        assert data == [(space.config_at(3), 5.0)]

    def test_repr(self, space):
        t = SearchTrace("RS")
        assert "empty" in repr(t)
        t.add(record(space, 0, 5.0, 1.0))
        assert "n=1" in repr(t)


class TestSharedStream:
    def test_deterministic_replay(self, space):
        a = SharedStream(space, seed=1)
        b = SharedStream(space, seed=1)
        assert a.prefix(20) == b.prefix(20)

    def test_seed_changes_order(self, space):
        a = SharedStream(space, seed=1).prefix(20)
        b = SharedStream(space, seed=2).prefix(20)
        assert a != b

    def test_no_duplicates(self, space):
        stream = SharedStream(space, seed=0)
        configs = stream.prefix(space.cardinality)
        assert len(set(configs)) == space.cardinality

    def test_random_access_consistent_with_prefix(self, space):
        stream = SharedStream(space, seed=3)
        tenth = stream[9]
        assert stream.prefix(10)[9] == tenth

    def test_exhaustion(self, space):
        stream = SharedStream(space, seed=0)
        stream.prefix(space.cardinality)
        with pytest.raises(SearchError):
            stream[space.cardinality]

    def test_iteration_stops_at_exhaustion(self):
        tiny = SearchSpace([IntegerParameter("a", 0, 3)])
        stream = SharedStream(tiny, seed=0)
        assert len(list(stream)) == 4

    def test_negative_position_rejected(self, space):
        with pytest.raises(SearchError):
            SharedStream(space)[-1]

    def test_exhaustion_error_is_specific(self, space):
        from repro.errors import StreamExhaustedError

        stream = SharedStream(space, seed=0)
        stream.prefix(space.cardinality)
        with pytest.raises(StreamExhaustedError):
            stream[space.cardinality]

    def test_access_pattern_independent_materialization(self, space):
        # prefix(n), item-by-item access, and a rebuilt stream must all
        # see identical sequences — checkpoint/resume and CRN depend on
        # the generator's chunk sizes being access-pattern independent.
        by_prefix = SharedStream(space, seed=7).prefix(50)
        item_stream = SharedStream(space, seed=7)
        by_item = [item_stream[i] for i in range(50)]
        assert by_item == by_prefix

    def test_no_oversampling_near_exhaustion(self):
        tiny = SearchSpace([IntegerParameter("a", 0, 4)], name="tiny")
        stream = SharedStream(tiny, seed=0)
        configs = stream.prefix(tiny.cardinality)
        assert len(set(configs)) == tiny.cardinality
        assert len(stream._configs) == tiny.cardinality
