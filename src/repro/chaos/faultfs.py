"""First-class filesystem fault injection for the journal layer.

The chaos orchestrator composes filesystem pressure with evaluator
faults, worker kills, and deadline pressure, so the failing filesystem
has to be schedulable (per-path rules, fault budgets,
arm/disarm windows) rather than a pytest-only monkeypatch.

:class:`FaultFS` shadows ``open`` and ``os`` inside
:mod:`repro.exec.journal` (a module-level name wins the lookup over the
builtin/import), so OSErrors are injected for exactly the ruled paths
while every other file — test fixtures, checkpoints, a registry under a
different path — keeps working.  Four failure modes per rule:

``refuse``
    The write-mode ``open`` itself raises (disk full before a byte
    lands) — the journal is untouched.
``partial``
    The open succeeds but the first ``write`` persists only half the
    bytes, fsyncs them, and then raises — a genuine torn tail, exactly
    what a crashing disk leaves behind.
``fsync``
    The bytes land but ``os.fsync`` raises — the write is *complete on
    disk yet unacknowledged*, the nastiest shape: a crash-safe caller
    must treat the record as lost (and may legitimately write it again,
    which is why journal replay is last-record-wins).
``rename``
    ``os.replace`` onto the ruled path raises — a compaction/rewrite
    that staged its snapshot but could not swap it in.  The stale
    temporary must be discarded, never read.

Beyond *failures* (the write is refused and the caller knows), rules
can inject *silent corruption* — the bit-rot layer the scrub/salvage
machinery (:mod:`repro.exec.scrub`) exists to survive:

``bitflip``
    One byte of one already-acknowledged record is XOR-flipped in
    place — the disk lied, nothing raised.  A CRC32-framed record
    fails verification on the next load; an unframed one may even
    still parse.
``truncate``
    The file is cut mid-record somewhere in the middle — everything
    after the cut is gone, and the cut line itself is torn.

Corruption rules fire on write-mode opens of the ruled path (latent
rot surfaces while the file is in active use) or — with
``on_replace=True`` — right after a successful ``os.replace`` onto the
path, which models a compaction whose freshly swapped-in snapshot rots
(flip-during-compaction).  ``FaultRule.damage`` counts the record
lines actually damaged, which is what bounds acceptable data loss in
the chaos oracle.

Every rule carries an optional **budget**: the number of faults it may
inject before auto-disarming, which is how a chaos plan expresses
"the disk is full for the next three appends, then space returns".

Reads and tail-repair opens (``rb``/``rb+``) are never failed: that is
how a full disk actually behaves, and it keeps recovery paths
exercisable while writes are down.
"""

from __future__ import annotations

import builtins
import errno
import os
from dataclasses import dataclass

from repro.utils.rng import stable_hash

__all__ = [
    "FAULTFS_MODES",
    "CORRUPT_MODES",
    "FaultRule",
    "FaultFS",
    "FailingFS",
    "corrupt_file",
]

#: Failure shapes a rule may inject.  (Kept separate from
#: :data:`CORRUPT_MODES`: :meth:`ChaosPlan.derive` draws ``fs_mode``
#: from this tuple, so extending it would silently change every
#: seed-derived plan.)
FAULTFS_MODES: tuple[str, ...] = ("refuse", "partial", "fsync", "rename")

#: Silent-corruption shapes a rule may inject (the bit-rot layer).
CORRUPT_MODES: tuple[str, ...] = ("bitflip", "truncate")


@dataclass
class FaultRule:
    """One path's injection schedule (mutable: budgets count down)."""

    path: str
    mode: str = "refuse"
    err: int = errno.ENOSPC
    budget: int | None = None  # faults left to inject; None = unlimited
    armed: bool = True
    failures: int = 0
    seed: str = ""  # corruption modes: deterministic damage-site draws
    on_replace: bool = False  # corruption fires after os.replace (compaction)
    protect_first_line: bool = False  # spare a leading compaction snapshot
    damage: int = 0  # record lines actually damaged (corruption modes)

    def __post_init__(self) -> None:
        self.path = os.fspath(self.path)
        if self.mode not in FAULTFS_MODES + CORRUPT_MODES:
            raise ValueError(
                f"unknown faultfs mode {self.mode!r}; known: "
                f"{FAULTFS_MODES + CORRUPT_MODES}"
            )
        if self.on_replace and self.mode not in CORRUPT_MODES:
            raise ValueError(
                f"on_replace applies to corruption modes {CORRUPT_MODES}, "
                f"not {self.mode!r}"
            )

    @property
    def active(self) -> bool:
        return self.armed and (self.budget is None or self.budget > 0)

    def consume(self) -> None:
        """Record one injected fault and burn budget (auto-disarm at 0)."""
        self.failures += 1
        if self.budget is not None:
            self.budget -= 1
            if self.budget <= 0:
                self.armed = False


# ----------------------------------------------------------------------
# Silent corruption (the bit-rot layer)
# ----------------------------------------------------------------------
def _line_spans(blob: bytes) -> list[tuple[int, int]]:
    """``(start, end)`` byte spans of every non-empty line in ``blob``."""
    spans: list[tuple[int, int]] = []
    start = 0
    for segment in blob.split(b"\n"):
        if segment:
            spans.append((start, start + len(segment)))
        start += len(segment) + 1
    return spans


def _flip_byte(blob: bytes, span: tuple[int, int], seed, index: int) -> bytes:
    """Return ``blob`` with one byte of the span deterministically flipped."""
    start, end = span
    pos = start + stable_hash("faultfs-flip-pos", seed, index) % (end - start)
    old = blob[pos]
    new = old ^ 0x01
    if new == 0x0A:  # never manufacture a newline: that would split the line
        new = old ^ 0x02
    return blob[:pos] + bytes([new]) + blob[pos + 1:]


def corrupt_file(path, mode: str, seed="", index: int = 0,
                 protect_final_line: bool = True,
                 protect_first_line: bool = False,
                 torn: bool = True) -> int:
    """Deterministically damage one file in place; returns records damaged.

    ``bitflip`` XOR-flips one byte inside one line; ``truncate`` cuts
    the file at the chosen line and drops everything after — mid-line
    when ``torn`` (a genuinely torn record), at the line's start
    otherwise.  The aligned cut exists for corruption injected on an
    *append* open: a torn cut there would glue the caller's in-flight
    record onto the damage and lose one more record than was counted,
    and ``damage`` is exactly what bounds acceptable loss in the chaos
    oracle.  With ``protect_final_line`` (the journal setting) the
    final line is never the flip target and never the first casualty of
    a truncate, so the damage is guaranteed to be *mid-file* — the
    shape torn-tail repair cannot explain away — while single-document
    files (checkpoints) pass ``False``.  ``protect_first_line`` exists
    for journals whose first line is a compaction *snapshot* holding
    the entire folded state: rotting it is whole-journal loss (a
    restore-from-backup failure class), not the per-record bit rot the
    scrub/salvage bound reasons about, so the session-store rules keep
    it out of reach.  Returns 0 without touching the file when it is
    too small to damage under those constraints; the damage site is a
    pure function of ``(seed, index, content)``.
    """
    if mode not in CORRUPT_MODES:
        raise ValueError(
            f"unknown corruption mode {mode!r}; known: {CORRUPT_MODES}"
        )
    try:
        with builtins.open(path, "rb") as fh:
            blob = fh.read()
    except OSError:
        return 0
    spans = _line_spans(blob)
    lo = 1 if protect_first_line else 0
    hi = len(spans) - 1 if protect_final_line else len(spans)
    eligible = spans[lo:hi] if hi > lo else []
    if not eligible:
        return 0
    choice = eligible[stable_hash("faultfs-corrupt", seed, index) % len(eligible)]
    if mode == "bitflip":
        damaged_blob = _flip_byte(blob, choice, seed, index)
        damage = 1
    else:
        start, end = choice
        cut = start + max(1, (end - start) // 2) if torn else start
        damaged_blob = blob[:cut]
        # Every line at or after the chosen one is lost (when torn, the
        # chosen line survives only as an undecodable fragment).
        damage = sum(1 for s, _e in spans if s >= start)
    with builtins.open(path, "wb") as fh:
        fh.write(damaged_blob)
        fh.flush()
        os.fsync(fh.fileno())
    return damage


class _PartialWriteFile:
    """File wrapper whose first write persists half the bytes, then fails."""

    def __init__(self, fh, err: int) -> None:
        self._fh = fh
        self._err = err

    def write(self, data):
        kept = data[: max(1, len(data) // 2)]
        self._fh.write(kept)
        self._fh.flush()
        os.fsync(self._fh.fileno())
        raise OSError(self._err, os.strerror(self._err))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()
        return False

    def __getattr__(self, name):
        return getattr(self._fh, name)


class _FsyncDoomedFile:
    """File wrapper that registers its fd for an injected fsync failure."""

    def __init__(self, fh, fs: "FaultFS", rule: FaultRule) -> None:
        self._fh = fh
        self._fs = fs
        self._rule = rule
        fs._doomed_fds[fh.fileno()] = rule

    def close(self):
        self._fs._doomed_fds.pop(self._fh.fileno(), None)
        return self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def __getattr__(self, name):
        return getattr(self._fh, name)


class _OsProxy:
    """Delegates everything to :mod:`os`, intercepting fsync/replace."""

    def __init__(self, fs: "FaultFS") -> None:
        self._fs = fs

    def fsync(self, fd):
        rule = self._fs._doomed_fds.get(fd)
        if rule is not None and rule.active:
            rule.consume()
            raise OSError(rule.err, os.strerror(rule.err))
        return os.fsync(fd)

    def replace(self, src, dst):
        rule = self._fs._rule_for(dst, mode="rename")
        if rule is not None:
            rule.consume()
            raise OSError(rule.err, os.strerror(rule.err), os.fspath(src),
                          None, os.fspath(dst))
        result = os.replace(src, dst)
        # Flip-during-compaction: the freshly swapped-in snapshot rots.
        self._fs._corrupt(dst, on_replace=True)
        return result

    def __getattr__(self, name):
        return getattr(os, name)


class FaultFS:
    """Injects filesystem faults into the journal layer, per path.

    Usage::

        fs = FaultFS()
        fs.add_rule(store_path, mode="refuse", budget=3)
        fs.add_rule(registry_path, mode="fsync", budget=1)
        with fs:                      # shadows open/os in repro.exec.journal
            ...                       # appends against ruled paths fail
        # uninstalled; counters survive for assertions

    Rules match the exact path being opened/renamed-onto, so the
    campaign journal and the workload journal can live on the same
    (real) filesystem with only the latter failing.  Installation is
    idempotent and always uninstalls cleanly, including on error.
    """

    def __init__(self) -> None:
        self.rules: list[FaultRule] = []
        self._installed = False
        self._saved: dict = {}
        self._doomed_fds: dict[int, FaultRule] = {}

    # ------------------------------------------------------------------
    # Rule management
    # ------------------------------------------------------------------
    def add_rule(
        self,
        path,
        mode: str = "refuse",
        err: int = errno.ENOSPC,
        budget: int | None = None,
        armed: bool = True,
        seed="",
        on_replace: bool = False,
        protect_first_line: bool = False,
    ) -> FaultRule:
        rule = FaultRule(path=os.fspath(path), mode=mode, err=err,
                         budget=budget, armed=armed, seed=str(seed),
                         on_replace=on_replace,
                         protect_first_line=protect_first_line)
        self.rules.append(rule)
        return rule

    def arm(self, path=None) -> None:
        """(Re-)arm every rule, or just the rules for one path."""
        for rule in self._select(path):
            rule.armed = True

    def disarm(self, path=None) -> None:
        for rule in self._select(path):
            rule.armed = False

    def _select(self, path):
        if path is None:
            return self.rules
        path = os.fspath(path)
        return [r for r in self.rules if r.path == path]

    def _rule_for(self, path, mode: str | None = None,
                  modes: tuple[str, ...] | None = None,
                  on_replace: bool | None = None) -> FaultRule | None:
        """The first active rule for ``path`` (optionally mode-filtered)."""
        path = os.fspath(path)
        for rule in self.rules:
            if rule.path != path or not rule.active:
                continue
            if mode is not None and rule.mode != mode:
                continue
            if modes is not None and rule.mode not in modes:
                continue
            if on_replace is not None and rule.on_replace != on_replace:
                continue
            return rule
        return None

    def _corrupt(self, path, on_replace: bool) -> None:
        """Apply the path's active corruption rule (if any) to the file.

        A rule only consumes budget when it actually damaged a record —
        a file too small to corrupt is skipped, so "corrupt one record"
        means one record, not one attempt.
        """
        rule = self._rule_for(path, modes=CORRUPT_MODES,
                              on_replace=on_replace)
        if rule is None:
            return
        damage = corrupt_file(
            path, rule.mode, seed=rule.seed or rule.path,
            index=rule.failures,
            protect_first_line=rule.protect_first_line,
            # An append open follows immediately: keep the cut aligned
            # so the in-flight record is not an uncounted casualty.
            torn=on_replace,
        )
        if damage:
            rule.damage += damage
            rule.consume()

    @property
    def failures(self) -> int:
        """Total faults injected across all rules."""
        return sum(rule.failures for rule in self.rules)

    @property
    def damage_records(self) -> int:
        """Record lines damaged by corruption rules across all paths."""
        return sum(rule.damage for rule in self.rules)

    def counts(self) -> dict[str, int]:
        """Faults injected per mode (the campaign's observability hook)."""
        out = {mode: 0 for mode in FAULTFS_MODES + CORRUPT_MODES}
        for rule in self.rules:
            out[rule.mode] += rule.failures
        return out

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self) -> "FaultFS":
        """Shadow ``open``/``os`` inside :mod:`repro.exec.journal`."""
        if self._installed:
            return self
        import repro.exec.journal as journal_mod

        self._saved = {
            "module": journal_mod,
            "open": getattr(journal_mod, "open", None),
            "os": journal_mod.os,
        }
        journal_mod.open = self._open  # type: ignore[attr-defined]
        journal_mod.os = _OsProxy(self)  # type: ignore[assignment]
        self._installed = True
        return self

    def uninstall(self) -> None:
        if not self._installed:
            return
        journal_mod = self._saved["module"]
        if self._saved["open"] is None:
            try:
                del journal_mod.open
            except AttributeError:
                pass
        else:
            journal_mod.open = self._saved["open"]
        journal_mod.os = self._saved["os"]
        self._saved = {}
        self._doomed_fds.clear()
        self._installed = False

    def __enter__(self) -> "FaultFS":
        return self.install()

    def __exit__(self, *exc) -> bool:
        self.uninstall()
        return False

    # ------------------------------------------------------------------
    # The shadowed open
    # ------------------------------------------------------------------
    def _open(self, file, mode="r", *args, **kwargs):
        # Inject only on append/truncate opens; "rb+" (tail repair) and
        # plain reads stay functional, as they do on a full disk.
        is_write = "w" in mode or "a" in mode
        if is_write:
            # Latent bit rot surfaces while the file is in active use:
            # damage the existing content before the new open proceeds.
            self._corrupt(file, on_replace=False)
            rule = self._rule_for(file, modes=("refuse", "partial", "fsync"))
            if rule is not None:
                if rule.mode == "refuse":
                    rule.consume()
                    raise OSError(rule.err, os.strerror(rule.err), file)
                if rule.mode == "partial":
                    rule.consume()
                    fh = builtins.open(file, mode, *args, **kwargs)
                    return _PartialWriteFile(fh, rule.err)
                # fsync: bytes land, the durability barrier fails.
                fh = builtins.open(file, mode, *args, **kwargs)
                return _FsyncDoomedFile(fh, self, rule)
        return builtins.open(file, mode, *args, **kwargs)


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
        import repro.exec.journal as journal_mod

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
