"""Tests for the source-data sanitization screen."""

import math

import pytest

from repro.errors import ReproError, SourceDataError
from repro.kernels import get_kernel
from repro.transfer.sanitize import SanitizationReport, sanitize_training
from repro.transfer.surrogate import Surrogate
from repro.utils.rng import spawn_rng


@pytest.fixture(scope="module")
def space():
    return get_kernel("lu", n=128).space


@pytest.fixture(scope="module")
def rows(space):
    configs = space.sample(spawn_rng("sanitize-test"), 12)
    return [(c, 0.01 * (i + 1)) for i, c in enumerate(configs)]


def _rejected(space, rows) -> SanitizationReport:
    """The report attached to the error that rejects ``rows``."""
    with pytest.raises(SourceDataError) as exc:
        sanitize_training(space, rows)
    return exc.value.report


class TestCleanData:
    def test_passes_through_untouched(self, space, rows):
        report = sanitize_training(space, rows)
        assert report.clean
        assert report.n_input == len(rows)
        assert report.summary().endswith("all valid")

    def test_censored_inf_is_not_invalid(self, space, rows):
        censored = rows + [(rows[0][0], math.inf)]
        report = sanitize_training(space, censored)
        assert report.clean and report.n_input == len(censored)


class TestInvalidRows:
    def test_nan_raises_with_report(self, space, rows):
        bad = rows + [(rows[0][0], math.nan)]
        with pytest.raises(SourceDataError) as exc:
            sanitize_training(space, bad)
        assert exc.value.report is not None
        assert exc.value.report.n_nan == 1
        assert "NaN" in str(exc.value)

    def test_negative_inf_counts_as_nan(self, space, rows):
        bad = rows + [(rows[0][0], -math.inf)]
        assert _rejected(space, bad).n_nan == 1

    def test_nonpositive_rejected_when_required(self, space, rows):
        bad = [(rows[0][0], 0.0), (rows[1][0], -2.0)] + rows[2:]
        assert _rejected(space, bad).n_nonpositive == 2

    def test_equal_space_built_independently_is_accepted(self, space, rows):
        # Pooled multi-machine training carries configs whose .space is
        # a different instance of the same space; identity is not the test.
        sibling = get_kernel("lu", n=128).space
        assert sibling is not space
        remapped = [(sibling.config_at(c.index), y) for c, y in rows]
        assert sanitize_training(space, remapped).clean

    def test_out_of_space_config(self, space, rows):
        other = get_kernel("mm", n=32).space
        foreign = other.sample(spawn_rng("sanitize-foreign"), 1)[0]
        bad = rows + [(foreign, 0.5)]
        assert _rejected(space, bad).n_out_of_space == 1

    def test_non_configuration_object(self, space, rows):
        report = _rejected(space, rows + [("not-a-config", 0.5)])
        assert report.n_out_of_space == 1

    def test_duplicates_keep_first(self, space, rows):
        # The first occurrence is the row; the repeat is the finding.
        doubled = rows + [rows[3]]
        report = _rejected(space, doubled)
        assert report.n_duplicate == 1
        assert report.findings == [
            f"row {len(rows)}: duplicate (runtime={rows[3][1]!r})"
        ]

    def test_same_config_different_runtime_is_not_duplicate(self, space, rows):
        remeasured = rows + [(rows[3][0], rows[3][1] * 1.5)]
        assert sanitize_training(space, remeasured).clean

    def test_error_reports_every_finding(self, space, rows):
        bad = rows + [(rows[0][0], math.nan), rows[1], (rows[2][0], -1.0)]
        report = _rejected(space, bad)
        assert report.n_invalid == 3
        assert len(report.findings) == 3
        assert report.n_input == len(bad)

    def test_error_is_a_repro_error(self, space, rows):
        with pytest.raises(ReproError):
            sanitize_training(space, [(rows[0][0], math.nan)])


class TestSurrogateIntegration:
    def test_fit_raises_on_dirty_data(self, space, rows):
        with pytest.raises(SourceDataError):
            Surrogate(space).fit(rows + [(rows[0][0], math.nan)])

    def test_inf_rows_are_left_out_of_the_fit(self, space, rows):
        with_inf = Surrogate(space).fit(rows + [(rows[0][0], math.inf)])
        clean = Surrogate(space).fit(rows)
        assert with_inf.fit_seconds == clean.fit_seconds
        probe = [c for c, _ in rows]
        assert list(with_inf.predict(probe)) == list(clean.predict(probe))

    def test_all_censored_is_an_error(self, space, rows):
        all_censored = [(c, math.inf) for c, _ in rows]
        with pytest.raises(SourceDataError):
            Surrogate(space).fit(all_censored)

    def test_report_dataclass_defaults(self):
        report = SanitizationReport()
        assert report.clean and report.n_invalid == 0
