"""Disk low-watermark guard and the chaos diagnostics in stats()."""

import types

import pytest

from repro.service import ServiceOverloadedError, TuningService


def probe(seed):
    return {"kind": "probe", "seed": seed, "work": 8}


def _fake_disk(monkeypatch, free: int) -> None:
    monkeypatch.setattr(
        "repro.service.service.shutil.disk_usage",
        lambda path: types.SimpleNamespace(total=2**40, used=2**40 - free,
                                           free=free),
    )


class TestWatermarkGuard:
    def test_low_free_space_rejects_before_the_append(self, tmp_path,
                                                      monkeypatch):
        svc = TuningService(tmp_path / "svc", n_workers=1,
                            min_free_bytes=1 << 20,
                            degraded_cooldown=0.0).open()
        try:
            _fake_disk(monkeypatch, free=1 << 10)
            with pytest.raises(ServiceOverloadedError, match="low-watermark"):
                svc.create_session("alice")
            # Nothing was journaled: the rejection beat the append.
            assert svc.store.sessions == {}
            assert svc.stats()["chaos"]["watermark_rejections"] == 1

            # Space comes back; the service resumes without restarting.
            _fake_disk(monkeypatch, free=1 << 30)
            session = svc.create_session("alice")
            svc.submit(session.session_id, probe(1))
            assert svc.pump() == 1
        finally:
            svc.stop()

    def test_submit_path_is_guarded_too(self, tmp_path, monkeypatch):
        svc = TuningService(tmp_path / "svc", n_workers=1,
                            min_free_bytes=1 << 20,
                            degraded_cooldown=0.0).open()
        try:
            _fake_disk(monkeypatch, free=1 << 30)
            session = svc.create_session("alice")
            _fake_disk(monkeypatch, free=1 << 10)
            with pytest.raises(ServiceOverloadedError, match="low-watermark"):
                svc.submit(session.session_id, probe(1))
            assert svc.store.jobs == {}
        finally:
            svc.stop()

    def test_rejection_opens_a_degraded_window(self, tmp_path, monkeypatch):
        svc = TuningService(tmp_path / "svc", n_workers=1,
                            min_free_bytes=1 << 20,
                            degraded_cooldown=60.0).open()
        try:
            _fake_disk(monkeypatch, free=1 << 10)
            with pytest.raises(ServiceOverloadedError, match="low-watermark"):
                svc.create_session("alice")
            # Even after space returns, the cooldown window holds — the
            # same backoff contract a failed journal write produces.
            _fake_disk(monkeypatch, free=1 << 30)
            with pytest.raises(ServiceOverloadedError, match="degraded"):
                svc.create_session("alice")
            assert svc.health()["ok"] is False
        finally:
            svc.stop()

    def test_disabled_by_default(self, tmp_path, monkeypatch):
        svc = TuningService(tmp_path / "svc", n_workers=1).open()
        try:
            _fake_disk(monkeypatch, free=0)  # would reject if consulted
            session = svc.create_session("alice")
            assert session.session_id in svc.store.sessions
        finally:
            svc.stop()


class TestChaosDiagnostics:
    def test_stats_chaos_section_shape(self, tmp_path):
        svc = TuningService(tmp_path / "svc", n_workers=1,
                            min_free_bytes=512).open()
        try:
            chaos = svc.stats()["chaos"]
            assert chaos["journal_write_failures"] == 0
            assert chaos["watermark_rejections"] == 0
            assert chaos["min_free_bytes"] == 512
            assert chaos["chaos_kills"] == 0
            assert chaos["worker_deaths"] == 0
        finally:
            svc.stop()
