"""Shared test helpers."""

import errno

import repro.exec.journal as journal_mod
from repro.chaos.faultfs import FaultFS


class FailingFS:
    """One-path, one-rule convenience wrapper over :class:`FaultFS`.

    Injects OSError into write-mode opens of a single journal path,
    toggled with :meth:`arm`/:meth:`disarm`.  ``patcher`` is pytest's
    ``monkeypatch`` (anything with a compatible ``setattr``): patching
    instead of :meth:`FaultFS.install` lets the fixture auto-restore
    the journal module even when a test errors out mid-body.
    """

    def __init__(self, patcher, path, err: int = errno.ENOSPC,
                 partial: bool = False) -> None:
        self._fs = FaultFS()
        self._rule = self._fs.add_rule(
            path, mode="partial" if partial else "refuse", err=err,
            armed=False,
        )
        patcher.setattr(journal_mod, "open", self._fs._open, raising=False)

    @property
    def path(self) -> str:
        return self._rule.path

    @property
    def err(self) -> int:
        return self._rule.err

    @property
    def partial(self) -> bool:
        return self._rule.mode == "partial"

    @property
    def armed(self) -> bool:
        return self._rule.armed

    @property
    def failures(self) -> int:
        return self._rule.failures

    def arm(self) -> None:
        self._rule.armed = True

    def disarm(self) -> None:
        self._rule.armed = False
