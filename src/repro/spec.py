"""The unified tuner-hyperparameter layer: :class:`TunerSpec`.

Willemsen et al. ("Tuning the Tuner", PAPERS.md) show the tuner's own
hyperparameters dominate autotuning outcomes, yet until this module
ours were hard-coded and scattered: the δ=20% pruning quantile in
:mod:`repro.search.gates`, the forest size duplicated across
:mod:`repro.transfer.surrogate` and the SMBO proposer, the 10k pool,
the SMBO EI settings, and the whole guard knob set.  ``TunerSpec``
gathers every one of them into a single frozen, range-validated,
JSON-round-trippable value that every entry point accepts as
``spec=`` — and that :mod:`repro.meta` can treat as a search space of
its own (the tuner tuning itself).

Design rules:

* **The default spec is the status quo.**  ``TunerSpec()`` reproduces
  the hard-coded values bit-for-bit; the golden-trace suite pins this.
* **One way to set a knob.**  Search factories, sessions and runs read
  every hyperparameter here from their ``spec=``; none also takes it
  as a keyword argument (``repro.devtools.lint`` enforces this).
* **Frozen and validated.**  Sub-specs are frozen dataclasses whose
  ``__post_init__`` rejects out-of-range knobs with :class:`SpecError`
  (a ``ValueError``), so an invalid spec cannot be constructed, only
  reported.
* **Versioned wire format.**  :meth:`TunerSpec.to_dict` emits a
  ``{"version": 2, ...}`` payload; :meth:`TunerSpec.from_dict` rejects
  unknown fields and any other version instead of guessing — service
  job payloads and journaled meta-grid cells both ride on it.

This module sits below every consumer (search, transfer, tuner,
service), so at import time it depends only on :mod:`repro.errors`;
the :class:`~repro.transfer.guard.GuardPolicy` sub-spec is resolved
lazily to keep the import graph acyclic.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, replace
from typing import Any, Mapping

from repro.errors import SpecError

# "GuardPolicy" annotations below are plain strings on purpose: the
# guard lives in repro.transfer, which imports the search layer, which
# imports this module — a module-level (or TYPE_CHECKING) import here
# would close that loop, and the lint sweep rejects both.  The class is
# imported lazily where actually needed.

__all__ = [
    "SPEC_VERSION",
    "ForestSpec",
    "GateSpec",
    "PoolSpec",
    "SMBOSpec",
    "EngineSpec",
    "TunerSpec",
    "DEFAULT_SPEC",
    "resolve_spec",
]

#: wire-format version written by :meth:`TunerSpec.to_dict`, and the
#: only one :meth:`TunerSpec.from_dict` reads.
SPEC_VERSION = 2

#: acquisition functions :class:`repro.search.proposers.SMBOProposer`
#: implements.
ACQUISITIONS = ("ei", "lcb", "mean")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SpecError(message)


@dataclass(frozen=True)
class ForestSpec:
    """Random-forest hyperparameters (one source of truth).

    The default reproduces the surrogate forest the transfer layer has
    always built; the SMBO proposer's smaller refit forest is the same
    spec with ``n_estimators=48, seed=7`` (see :class:`SMBOSpec`).
    """

    n_estimators: int = 64
    min_samples_leaf: int = 2
    min_samples_split: int = 5
    max_features: int | float | str | None = "third"
    max_depth: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        _require(self.n_estimators >= 1,
                 f"forest.n_estimators must be >= 1, got {self.n_estimators}")
        _require(self.min_samples_leaf >= 1,
                 f"forest.min_samples_leaf must be >= 1, got {self.min_samples_leaf}")
        _require(self.min_samples_split >= 2,
                 f"forest.min_samples_split must be >= 2, got {self.min_samples_split}")
        _require(self.max_depth is None or self.max_depth >= 1,
                 f"forest.max_depth must be None or >= 1, got {self.max_depth}")
        if isinstance(self.max_features, str):
            _require(self.max_features in ("third", "sqrt", "log2", "all"),
                     f"forest.max_features string must be one of "
                     f"third/sqrt/log2/all, got {self.max_features!r}")
        elif self.max_features is not None:
            _require(self.max_features > 0,
                     f"forest.max_features must be positive, got {self.max_features}")


@dataclass(frozen=True)
class GateSpec:
    """Pruning-gate hyperparameters: the paper's δ quantile."""

    delta_percent: float = 20.0

    def __post_init__(self) -> None:
        _require(0.0 < self.delta_percent < 100.0,
                 f"gate.delta_percent must be in (0, 100), got {self.delta_percent}")


@dataclass(frozen=True)
class PoolSpec:
    """Candidate-pool sizing: the paper's N=10k sample."""

    size: int = 10_000

    def __post_init__(self) -> None:
        _require(self.size >= 10, f"pool.size must be >= 10, got {self.size}")


@dataclass(frozen=True)
class SMBOSpec:
    """Sequential model-based optimization knobs (EI loop)."""

    n_initial: int = 10
    pool_size: int = 2_000
    acquisition: str = "ei"
    kappa: float = 1.5
    refit_every: int = 1
    forest: ForestSpec = field(
        default_factory=lambda: ForestSpec(n_estimators=48, seed=7)
    )

    def __post_init__(self) -> None:
        _require(self.n_initial >= 1,
                 f"smbo.n_initial must be >= 1, got {self.n_initial}")
        _require(self.pool_size >= 10,
                 f"smbo.pool_size must be >= 10, got {self.pool_size}")
        _require(self.acquisition in ACQUISITIONS,
                 f"smbo.acquisition must be one of {ACQUISITIONS}, "
                 f"got {self.acquisition!r}")
        _require(self.kappa >= 0.0, f"smbo.kappa must be >= 0, got {self.kappa}")
        _require(self.refit_every >= 1,
                 f"smbo.refit_every must be >= 1, got {self.refit_every}")


@dataclass(frozen=True)
class EngineSpec:
    """Engine execution shape: the search loop's block size.

    Traces are byte-identical at every ``batch_size`` — this knob
    trades throughput, not results.
    """

    batch_size: int = 64

    def __post_init__(self) -> None:
        _require(isinstance(self.batch_size, int) and self.batch_size >= 1,
                 f"engine.batch_size must be an int >= 1, got {self.batch_size!r}")


_SUB_SPECS: dict[str, type] = {}  # populated after TunerSpec is defined


def _guard_to_dict(guard: "GuardPolicy") -> dict:
    return {f.name: getattr(guard, f.name) for f in fields(guard)}


def _guard_from_dict(data: Any) -> "GuardPolicy":
    from repro.transfer.guard import GuardPolicy

    _require(isinstance(data, Mapping),
             f"spec field 'guard' must be a mapping or null, got {type(data).__name__}")
    known = {f.name for f in fields(GuardPolicy)}
    unknown = sorted(set(data) - known)
    _require(not unknown, f"unknown guard field(s): {unknown}")
    return GuardPolicy(**dict(data))


def _sub_to_dict(spec: Any) -> dict:
    out = {}
    for f in fields(spec):
        value = getattr(spec, f.name)
        out[f.name] = _sub_to_dict(value) if isinstance(value, ForestSpec) else value
    return out


def _sub_from_dict(cls: type, data: Any, where: str) -> Any:
    _require(isinstance(data, Mapping),
             f"spec field {where!r} must be a mapping, got {type(data).__name__}")
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(data) - known)
    _require(not unknown, f"unknown field(s) in {where!r}: {unknown}")
    kwargs = dict(data)
    if "forest" in kwargs and cls is SMBOSpec:
        kwargs["forest"] = _sub_from_dict(
            ForestSpec, kwargs["forest"], f"{where}.forest"
        )
    return cls(**kwargs)


@dataclass(frozen=True)
class TunerSpec:
    """Every tuner hyperparameter, in one frozen, serializable value.

    ``TunerSpec()`` is the status quo (golden-trace proven); pass a
    modified spec to any search factory, :class:`TransferSession`,
    :func:`~repro.tuner.runner.warm_started_search`, or a service job
    payload to change the tuner's behavior.  The spec is the only way to set these knobs: no factory
    takes a per-knob keyword argument alongside ``spec=``.
    """

    forest: ForestSpec = field(default_factory=ForestSpec)
    gate: GateSpec = field(default_factory=GateSpec)
    pool: PoolSpec = field(default_factory=PoolSpec)
    smbo: SMBOSpec = field(default_factory=SMBOSpec)
    engine: EngineSpec = field(default_factory=EngineSpec)
    guard: "GuardPolicy | None" = None

    # ------------------------------------------------------------------
    # Wire format
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Versioned, JSON-safe payload; inverse of :meth:`from_dict`."""
        return {
            "version": SPEC_VERSION,
            "forest": _sub_to_dict(self.forest),
            "gate": _sub_to_dict(self.gate),
            "pool": _sub_to_dict(self.pool),
            "smbo": _sub_to_dict(self.smbo),
            "engine": _sub_to_dict(self.engine),
            "guard": None if self.guard is None else _guard_to_dict(self.guard),
        }

    @classmethod
    def from_dict(cls, data: Any) -> "TunerSpec":
        """Decode a wire payload, rejecting unknown fields and unknown
        versions (fail loudly rather than silently drop a knob a newer
        writer meant to change)."""
        _require(isinstance(data, Mapping),
                 f"a spec payload must be a mapping, got {type(data).__name__}")
        payload = dict(data)
        _require("version" in payload, "spec payload has no 'version' field")
        version = payload.pop("version")
        _require(version == SPEC_VERSION,
                 f"unsupported spec version {version!r} "
                 f"(this build reads version {SPEC_VERSION})")
        unknown = sorted(set(payload) - set(_SUB_SPECS) - {"guard"})
        _require(not unknown, f"unknown spec field(s): {unknown}")
        kwargs: dict[str, Any] = {}
        for name, sub_cls in _SUB_SPECS.items():
            if name in payload:
                kwargs[name] = _sub_from_dict(sub_cls, payload[name], name)
        guard = payload.get("guard")
        if guard is not None:
            kwargs["guard"] = _guard_from_dict(guard)
        return cls(**kwargs)

    def to_json(self) -> str:
        """Canonical (sorted-key) JSON encoding."""
        return json.dumps(self.to_dict(), sort_keys=True)

    def fingerprint(self) -> str:
        """Short stable digest of the canonical encoding — names
        journaled meta-grid cells and service results."""
        return hashlib.sha256(self.to_json().encode()).hexdigest()[:12]

    # ------------------------------------------------------------------
    # Functional updates
    # ------------------------------------------------------------------
    def with_value(self, path: str, value: Any) -> "TunerSpec":
        """A copy with one dotted-path knob replaced (re-validated).

        ``spec.with_value("gate.delta_percent", 5.0)`` or
        ``spec.with_value("smbo.forest.seed", 3)``.  This is how
        :mod:`repro.meta` maps a meta-space configuration onto a
        candidate spec.
        """
        parts = path.split(".")
        _require(len(parts) >= 2, f"spec path needs a sub-spec prefix: {path!r}")
        head, rest = parts[0], parts[1:]
        if head == "guard":
            _require(self.guard is not None,
                     f"cannot set {path!r}: spec has no guard policy")
            _require(len(rest) == 1, f"no such guard knob path: {path!r}")
            _require(rest[0] in {f.name for f in fields(self.guard)},
                     f"unknown guard field {rest[0]!r}")
            return replace(self, guard=replace(self.guard, **{rest[0]: value}))
        _require(head in _SUB_SPECS, f"unknown sub-spec {head!r} in path {path!r}")
        sub = getattr(self, head)
        if len(rest) == 2 and head == "smbo" and rest[0] == "forest":
            _require(rest[1] in {f.name for f in fields(ForestSpec)},
                     f"unknown forest field {rest[1]!r}")
            sub = replace(sub, forest=replace(sub.forest, **{rest[1]: value}))
        else:
            _require(len(rest) == 1, f"no such spec knob path: {path!r}")
            _require(rest[0] in {f.name for f in fields(sub)},
                     f"unknown field {rest[0]!r} in sub-spec {head!r}")
            sub = replace(sub, **{rest[0]: value})
        return replace(self, **{head: sub})


_SUB_SPECS.update(
    forest=ForestSpec, gate=GateSpec, pool=PoolSpec,
    smbo=SMBOSpec, engine=EngineSpec,
)

#: the status-quo spec every entry point falls back to.
DEFAULT_SPEC = TunerSpec()


def resolve_spec(spec: "TunerSpec | None") -> TunerSpec:
    """``spec`` itself, or :data:`DEFAULT_SPEC` when ``None``."""
    if spec is None:
        return DEFAULT_SPEC
    if not isinstance(spec, TunerSpec):
        raise SpecError(
            f"spec must be a TunerSpec or None, got {type(spec).__name__}"
        )
    return spec
