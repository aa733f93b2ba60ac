"""Seed-derived, bit-replayable chaos schedules across every layer.

A :class:`ChaosPlan` is the orchestration unit: one frozen dataclass
holding the fault intensities of all five layers —

* **evaluator faults** (:mod:`repro.reliability.faults`): transient
  glitches, compile crashes, timeouts, outages inside the simulated
  measurement pipeline;
* **worker chaos** (:class:`repro.exec.ChaosConfig`): kill and hang
  injection in the supervised executor's worker fleet;
* **filesystem faults** (:mod:`repro.chaos.faultfs`): budgeted
  ENOSPC/EACCES/partial-write/fsync/rename failures against the journal
  paths;
* **clock/deadline pressure**: a tightened per-task wall-clock budget
  plus kill/restart cadence for checkpointed searches and service
  sessions;
* **silent corruption** (:data:`repro.chaos.faultfs.CORRUPT_MODES`):
  budgeted bit-flip/mid-file-truncate damage against the grid
  registry, the session store, and search checkpoints — including
  flip-during-compaction — exercised against the CRC32
  framing + scrub-and-salvage machinery of :mod:`repro.exec.scrub`.

Every knob is drawn from one seed via stateless
:func:`~repro.utils.rng.hash_uniform` draws (PR 1's fault-injection
idiom), so ``ChaosPlan.derive(seed)`` is a pure function: the same seed
always produces the same schedule, a campaign journal entry identifies
its plan completely, and any run replays bit-identically.
"""

from __future__ import annotations

import dataclasses
import errno
from dataclasses import dataclass

from repro.chaos.faultfs import CORRUPT_MODES, FAULTFS_MODES
from repro.exec.executor import ChaosConfig
from repro.reliability.faults import FaultSpec
from repro.utils.rng import hash_uniform

__all__ = ["ChaosPlan"]

#: Errno values a filesystem fault may carry (disk full / permission
#: lost — the two failure classes the journal layer distinguishes).
_FS_ERRNOS: tuple[int, ...] = (errno.ENOSPC, errno.EACCES)


def _draw(seed, knob: str, lo: float, hi: float) -> float:
    """One stateless uniform draw in [lo, hi) for a plan knob."""
    return lo + (hi - lo) * hash_uniform("chaos-plan", seed, knob)


def _choice(seed, knob: str, options: tuple) -> object:
    return options[int(_draw(seed, knob, 0.0, len(options)) ) % len(options)]


@dataclass(frozen=True)
class ChaosPlan:
    """One complete cross-layer fault schedule, derived from one seed."""

    seed: str
    # -- evaluator-fault layer -----------------------------------------
    fault_rate: float
    # -- worker layer ---------------------------------------------------
    kill_rate: float
    hang_rate: float
    hang_seconds: float
    # -- filesystem layer -----------------------------------------------
    fs_mode: str
    fs_errno: int
    fs_budget: int
    # -- clock/deadline pressure ---------------------------------------
    task_timeout: float
    kill_every_saves: int
    restarts: int
    # -- silent-corruption layer (bit rot) ------------------------------
    corrupt_mode: str  # grid registry damage shape
    store_corrupt_mode: str  # session-store damage shape
    ckpt_corrupt_mode: str  # checkpoint damage shape
    corrupt_budget: int  # damaged records allowed per target
    corrupt_compaction: bool  # also rot the freshly compacted registry

    def __post_init__(self) -> None:
        if self.fs_mode not in FAULTFS_MODES:
            raise ValueError(
                f"unknown fs_mode {self.fs_mode!r}; known: {FAULTFS_MODES}"
            )
        for knob in ("corrupt_mode", "store_corrupt_mode",
                     "ckpt_corrupt_mode"):
            value = getattr(self, knob)
            if value not in CORRUPT_MODES:
                raise ValueError(
                    f"unknown {knob} {value!r}; known: {CORRUPT_MODES}"
                )

    # ------------------------------------------------------------------
    @classmethod
    def derive(cls, seed, intensity: float = 1.0) -> "ChaosPlan":
        """The plan for one seed — pure, stateless, replayable.

        ``intensity`` scales the probabilistic layers (fault, kill, and
        hang rates) without touching the structural ones, so a campaign
        can sweep gentle-to-vicious mixes over the same seeds.
        """
        if intensity < 0.0:
            raise ValueError(f"intensity must be >= 0, got {intensity}")
        seed = str(seed)
        return cls(
            seed=seed,
            fault_rate=min(0.9, intensity * _draw(seed, "fault-rate", 0.05, 0.30)),
            kill_rate=min(0.9, intensity * _draw(seed, "kill-rate", 0.10, 0.35)),
            hang_rate=min(0.9, intensity * _draw(seed, "hang-rate", 0.05, 0.25)),
            hang_seconds=_draw(seed, "hang-seconds", 0.02, 0.10),
            fs_mode=str(_choice(seed, "fs-mode", FAULTFS_MODES)),
            fs_errno=int(_choice(seed, "fs-errno", _FS_ERRNOS)),
            fs_budget=1 + int(_draw(seed, "fs-budget", 0.0, 3.0)),
            task_timeout=_draw(seed, "task-timeout", 4.0, 8.0),
            kill_every_saves=1 + int(_draw(seed, "kill-every-saves", 0.0, 3.0)),
            restarts=1 + int(_draw(seed, "restarts", 0.0, 2.0)),
            # New knobs draw from their own hash streams, so adding the
            # corruption layer left every pre-existing draw unchanged.
            corrupt_mode=str(_choice(seed, "corrupt-mode", CORRUPT_MODES)),
            store_corrupt_mode=str(
                _choice(seed, "store-corrupt-mode", CORRUPT_MODES)
            ),
            ckpt_corrupt_mode=str(
                _choice(seed, "ckpt-corrupt-mode", CORRUPT_MODES)
            ),
            corrupt_budget=1 + int(_draw(seed, "corrupt-budget", 0.0, 2.0)),
            corrupt_compaction=_draw(seed, "corrupt-compaction", 0.0, 1.0) < 0.5,
        )

    # ------------------------------------------------------------------
    # Per-layer views
    # ------------------------------------------------------------------
    def fault_spec(self) -> FaultSpec:
        """The evaluator-fault schedule (outages last 50 simulated s).

        This layer is *simulation input*, not operational chaos: the
        fault-free reference run shares the same spec, so evaluator
        faults perturb what the search measures identically in both
        runs and only kills/restarts/filesystem pressure differ.
        """
        return FaultSpec.uniform(
            self.fault_rate,
            seed=("chaos", self.seed),
            outage_horizon_seconds=50.0,
        )

    def chaos_config(self) -> ChaosConfig | None:
        """The worker kill/hang schedule (None when both rates are 0)."""
        if self.kill_rate <= 0.0 and self.hang_rate <= 0.0:
            return None
        return ChaosConfig(
            kill_rate=self.kill_rate,
            hang_rate=self.hang_rate,
            hang_seconds=self.hang_seconds,
            seed=("chaos", self.seed),
        )

    def fs_rule_kwargs(self) -> dict:
        """Keyword arguments for :meth:`repro.chaos.faultfs.FaultFS.add_rule`."""
        return {
            "mode": self.fs_mode,
            "err": self.fs_errno,
            "budget": self.fs_budget,
        }

    def corrupt_rule_kwargs(self, target: str,
                            on_replace: bool = False) -> dict:
        """Corruption-rule kwargs for one target (``registry``/``store``).

        Each target salts the damage-site draws with its own seed so
        the registry and the store do not rot in lock-step; the
        flip-during-compaction rule (``on_replace=True``) always
        bit-flips — a truncate of a freshly compacted snapshot would
        mostly reproduce the plain truncate case.  The store rules
        protect the journal's first line: after compaction that line is
        the folded snapshot of *every* session and job, so rotting it
        is whole-journal loss rather than the per-record damage the
        oracle's bounded-loss invariant accounts for.
        """
        mode = {
            "registry": self.corrupt_mode,
            "store": self.store_corrupt_mode,
        }[target]
        return {
            "mode": "bitflip" if on_replace else mode,
            "budget": 1 if on_replace else self.corrupt_budget,
            "seed": f"{self.seed}-{target}",
            "on_replace": on_replace,
            "protect_first_line": target == "store",
        }

    # ------------------------------------------------------------------
    # Wire format (campaign journaling)
    # ------------------------------------------------------------------
    def to_wire(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_wire(cls, data: dict) -> "ChaosPlan":
        return cls(**{f.name: data[f.name] for f in dataclasses.fields(cls)})
