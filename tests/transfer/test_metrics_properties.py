"""Randomized properties of the paper's speedup metrics (Section IV-D).

Runtimes and elapsed times are drawn from small integer grids so ties
are common: they exercise the "first reach of a runtime <= RS's best"
semantics, and every comparison below is exact in floating point.
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.search.result import EvaluationRecord, SearchTrace
from repro.searchspace import IntegerParameter, SearchSpace
from repro.transfer import speedups

SPACE = SearchSpace([IntegerParameter("a", 0, 99)], name="m")


@st.composite
def traces(draw, algorithm):
    """A time-ordered trace of 1-15 successful evaluations."""
    points = draw(st.lists(
        st.tuples(st.integers(1, 20), st.integers(1, 10)),
        min_size=1, max_size=15,
    ))
    trace = SearchTrace(algorithm)
    elapsed = 0.0
    for i, (runtime, step) in enumerate(points):
        elapsed += step
        trace.add(EvaluationRecord(SPACE.config_at(i), float(runtime), elapsed))
    return trace


def _with_records(trace, algorithm, records):
    out = SearchTrace(algorithm)
    for record in records:
        out.add(record)
    return out


class TestSpeedupProperties:
    @settings(max_examples=200, deadline=None)
    @given(rs=traces("RS"))
    def test_identical_variant_is_one_x_and_not_successful(self, rs):
        rep = speedups(rs, _with_records(rs, "RSb", rs.records))
        assert rep.performance == 1.0
        assert rep.search_time == 1.0
        assert not rep.successful

    @settings(max_examples=200, deadline=None)
    @given(rs=traces("RS"), variant=traces("RSb"),
           factor=st.floats(0.01, 1.0))
    def test_earlier_reach_never_lowers_search_speedup(self, rs, variant,
                                                       factor):
        earlier = _with_records(variant, "RSb", [
            replace(r, elapsed=r.elapsed * factor) for r in variant.records
        ])
        before, after = speedups(rs, variant), speedups(rs, earlier)
        assert after.search_time >= before.search_time
        assert after.performance == before.performance

    @settings(max_examples=200, deadline=None)
    @given(rs=traces("RS"), variant=traces("RSb"))
    def test_never_reaching_rs_best_scores_zero(self, rs, variant):
        worse = _with_records(variant, "RSb", [
            replace(r, runtime=rs.best_runtime + r.runtime)
            for r in variant.records
        ])
        rep = speedups(rs, worse)
        assert rep.search_time == 0.0
        assert rep.variant_time_to_match is None
        assert rep.performance < 1.0
        assert not rep.successful

    @settings(max_examples=300, deadline=None)
    @given(rs=traces("RS"), variant=traces("RSb"))
    def test_success_is_prf_at_least_one_and_srh_above_one(self, rs, variant):
        rep = speedups(rs, variant)
        assert rep.successful == (rep.performance >= 1.0
                                  and rep.search_time > 1.0)
        # The same verdict from the traces alone: at least as good as
        # RS's best, and reaching RS's best strictly sooner than RS did.
        match = variant.time_to_reach(rs.best_runtime)
        assert rep.successful == (
            variant.best_runtime <= rs.best_runtime
            and match is not None
            and match < rs.time_of_best()
        )
