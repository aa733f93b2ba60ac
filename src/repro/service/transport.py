"""The transport adapter over :class:`~repro.service.service.TuningService`.

:class:`ServiceHandler` is a dict-in/dict-out request handler with no
business logic.  Every operation takes a JSON-safe request
``{"op": ..., ...}`` and returns ``{"ok": True, ...}`` or
``{"ok": False, "error": {...}}`` where the error body is the
structured payload of a :class:`~repro.service.errors.ServiceError`
(``reason``, ``retry_after``, ``tenant``).  This is the surface the
load and chaos tests and the ``service_mix`` benchmark drive, and what
any RPC or HTTP framing would wrap.
"""

from __future__ import annotations

from repro.errors import ReproError
from repro.service.errors import ServiceError
from repro.service.service import TuningService

__all__ = ["ServiceHandler"]


class ServiceHandler:
    """Dict request -> dict response mapping for one service instance."""

    def __init__(self, service: TuningService) -> None:
        self.service = service
        self._ops = {
            "create_session": self._create_session,
            "attach": self._attach,
            "detach": self._detach,
            "cancel_session": self._cancel_session,
            "close_session": self._close_session,
            "submit": self._submit,
            "cancel_job": self._cancel_job,
            "job": self._job,
            "events": self._events,
            "stats": self._stats,
            "health": self._health,
        }

    def handle(self, request: dict) -> dict:
        """Dispatch one request; never raises for service-level errors."""
        op = str(request.get("op", ""))
        handler = self._ops.get(op)
        if handler is None:
            return {
                "ok": False,
                "error": {
                    "error": "BadRequest",
                    "reason": "bad-request",
                    "message": f"unknown op {op!r}; known: {sorted(self._ops)}",
                },
            }
        try:
            body = handler(request)
        except ServiceError as exc:
            return {"ok": False, "error": exc.to_payload()}
        except (KeyError, TypeError, ValueError, ReproError) as exc:
            return {
                "ok": False,
                "error": {
                    "error": type(exc).__name__,
                    "reason": "bad-request",
                    "message": str(exc),
                },
            }
        out = {"ok": True}
        out.update(body)
        return out

    # -- op implementations --------------------------------------------
    def _create_session(self, req: dict) -> dict:
        session = self.service.create_session(
            str(req["tenant"]), meta=req.get("meta")
        )
        return {"session": session.to_wire()}

    def _attach(self, req: dict) -> dict:
        return self.service.attach(str(req["session"]), tenant=req.get("tenant"))

    def _detach(self, req: dict) -> dict:
        self.service.detach(str(req["session"]), tenant=req.get("tenant"))
        return {}

    def _cancel_session(self, req: dict) -> dict:
        cancelled = self.service.cancel_session(
            str(req["session"]), tenant=req.get("tenant")
        )
        return {"cancelled_jobs": cancelled}

    def _close_session(self, req: dict) -> dict:
        self.service.close_session(str(req["session"]), tenant=req.get("tenant"))
        return {}

    def _submit(self, req: dict) -> dict:
        job = self.service.submit(
            str(req["session"]),
            dict(req["payload"]),
            priority=int(req.get("priority", 0)),
            deadline_seconds=req.get("deadline_seconds"),
            tenant=req.get("tenant"),
        )
        return {"job": job.to_wire()}

    def _cancel_job(self, req: dict) -> dict:
        return {"job": self.service.cancel_job(str(req["job"])).to_wire()}

    def _job(self, req: dict) -> dict:
        return {"job": self.service.job(str(req["job"])).to_wire()}

    def _events(self, req: dict) -> dict:
        events = self.service.events(
            str(req["session"]),
            after=int(req.get("after", 0)),
            limit=req.get("limit"),
        )
        return {"events": [e.to_wire() for e in events]}

    def _stats(self, req: dict) -> dict:
        return {"stats": self.service.stats()}

    def _health(self, req: dict) -> dict:
        return {"health": self.service.health()}
