"""The transfer job runs the spec its payload carries."""

import pytest

from repro.errors import SpecError
from repro.experiments.harness import build_session
from repro.service import execute_job, trace_digest
from repro.spec import DEFAULT_SPEC

CELL = {"problem": "MM", "source": "westmere", "target": "sandybridge",
        "seed": 0, "nmax": 8}


def _job(**payload):
    return execute_job({"kind": "transfer", **CELL, "variants": ["RSb"],
                        **payload})


def _session_digest(pool_size):
    outcome = build_session(**CELL, pool_size=pool_size,
                            variants=("RSb",)).run()
    return trace_digest(outcome.traces["RSb"])


class TestTransferJobSpec:
    def test_spec_pool_size_runs_as_given(self):
        spec = DEFAULT_SPEC.with_value("pool.size", 50)
        result = _job(spec=spec.to_dict())
        assert result["spec_fingerprint"] == spec.fingerprint()
        assert result["trace_digests"]["RSb"] == _session_digest(50)
        assert result["trace_digests"]["RSb"] != _session_digest(2000)

    def test_spec_less_job_keeps_its_pool_size(self):
        assert _job()["trace_digests"]["RSb"] == _session_digest(2000)
        assert (_job(pool_size=50)["trace_digests"]["RSb"]
                == _session_digest(50))

    def test_spec_and_pool_size_together_are_rejected(self):
        with pytest.raises(SpecError, match="not both"):
            _job(spec=DEFAULT_SPEC.to_dict(), pool_size=50)
