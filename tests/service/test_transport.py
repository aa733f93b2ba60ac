"""Tests for the transport adapter: the dict request handler."""

import pytest

from repro.service import ServiceHandler, TenantQuota, TuningService


@pytest.fixture
def service(tmp_path):
    svc = TuningService(tmp_path / "svc", n_workers=1).open()
    yield svc
    svc.stop()


@pytest.fixture
def handler(service):
    return ServiceHandler(service)


class TestHandler:
    def test_full_round_trip(self, service, handler):
        created = handler.handle({"op": "create_session", "tenant": "alice"})
        assert created["ok"]
        sid = created["session"]["session_id"]
        submitted = handler.handle({
            "op": "submit", "session": sid,
            "payload": {"kind": "probe", "seed": 1, "work": 8},
        })
        assert submitted["ok"]
        service.pump()
        job = handler.handle({"op": "job", "job": submitted["job"]["job_id"]})
        assert job["ok"] and job["job"]["state"] == "completed"
        events = handler.handle({"op": "events", "session": sid})
        assert [e["kind"] for e in events["events"]][-1] == "job-completed"

    def test_unknown_op_is_bad_request(self, handler):
        response = handler.handle({"op": "frobnicate"})
        assert not response["ok"]
        assert response["error"]["reason"] == "bad-request"

    def test_missing_field_is_bad_request_not_crash(self, handler):
        response = handler.handle({"op": "submit"})
        assert not response["ok"]
        assert response["error"]["reason"] == "bad-request"

    def test_not_found_errors_carry_reason(self, handler):
        response = handler.handle({"op": "job", "job": "j999999"})
        assert response["error"]["reason"] == "job-not-found"
        response = handler.handle({"op": "attach", "session": "s999999-x"})
        assert response["error"]["reason"] == "session-not-found"

    def test_admission_errors_carry_retry_after(self, tmp_path):
        svc = TuningService(
            tmp_path / "svc", n_workers=1,
            default_quota=TenantQuota(max_live_sessions=1),
        ).open()
        handler = ServiceHandler(svc)
        handler.handle({"op": "create_session", "tenant": "alice"})
        rejected = handler.handle({"op": "create_session", "tenant": "alice"})
        assert not rejected["ok"]
        assert rejected["error"]["reason"] == "quota-exceeded"
        assert rejected["error"]["retry_after"] > 0
        assert rejected["error"]["tenant"] == "alice"

    def test_stats_and_health_ops(self, handler):
        assert handler.handle({"op": "health"})["health"]["ok"] is True
        assert "jobs" in handler.handle({"op": "stats"})["stats"]
