"""Deterministic random-number infrastructure.

Every stochastic component in the library draws from a
:class:`numpy.random.Generator` obtained through this module so that
whole experiments are bit-reproducible.  Streams are keyed by arbitrary
string/int tokens hashed with SHA-256 (:func:`stable_hash`), which is
stable across processes and Python versions — unlike the built-in
``hash`` which is salted per process.

Two idioms are supported:

* :func:`spawn_rng` — one-off generator for a key tuple::

      rng = spawn_rng("figure3", "LU", "sandybridge")

* :class:`RngFactory` — a root key plus cheap child streams, used by
  components that need many related but independent streams (e.g. one
  per decision tree in a random forest)::

      factory = RngFactory("rf", seed=42)
      tree_rng = factory.child("tree", 7)
"""

from __future__ import annotations

import hashlib
from typing import Any, Iterable

import numpy as np

__all__ = ["stable_hash", "stable_seed", "spawn_rng", "RngFactory"]

_MASK64 = (1 << 64) - 1


def _tokenize(parts: Iterable[Any]) -> bytes:
    """Serialize heterogeneous key parts into an unambiguous byte string."""
    chunks = []
    for part in parts:
        if isinstance(part, bytes):
            chunks.append(b"b" + part)
        elif isinstance(part, bool):
            chunks.append(b"B" + (b"1" if part else b"0"))
        elif isinstance(part, (int, np.integer)):
            chunks.append(b"i" + str(int(part)).encode())
        elif isinstance(part, (float, np.floating)):
            chunks.append(b"f" + repr(float(part)).encode())
        elif isinstance(part, str):
            chunks.append(b"s" + part.encode())
        elif isinstance(part, (tuple, list)):
            chunks.append(b"(" + _tokenize(part) + b")")
        elif part is None:
            chunks.append(b"n")
        else:
            raise TypeError(f"unsupported RNG key part: {part!r} ({type(part).__name__})")
    return b"\x1f".join(chunks)


def stable_hash(*parts: Any) -> int:
    """Return a process-stable 64-bit hash of the key parts."""
    return _digest_word(hashlib.sha256(_tokenize(parts)))


def _digest_word(hasher) -> int:
    """The first 64 bits of a SHA-256 hasher's digest, little-endian."""
    return int.from_bytes(hasher.digest()[:8], "little") & _MASK64


def stable_seed(*parts: Any) -> np.random.SeedSequence:
    """Return a :class:`numpy.random.SeedSequence` derived from key parts."""
    digest = hashlib.sha256(_tokenize(parts)).digest()
    words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 32, 4)]
    return np.random.SeedSequence(words)


def spawn_rng(*parts: Any) -> np.random.Generator:
    """Return an independent generator keyed by the given parts."""
    return np.random.Generator(np.random.PCG64(stable_seed(*parts)))


def hash_uniform(*parts: Any) -> float:
    """Return a deterministic uniform(0, 1) value keyed by the parts.

    Used by the performance-noise model, which needs a reproducible
    pseudo-random value per (machine, kernel, configuration) without
    keeping generator state.
    """
    return (stable_hash(*parts) + 0.5) / float(1 << 64)


_NORMAL_DRAWS = (_tokenize(("u1",)), _tokenize(("u2",)))


def hash_normal(*parts: Any) -> float:
    """Return a deterministic standard-normal value keyed by the parts.

    Implemented as a Box–Muller transform over two hash-derived
    uniforms, ``hash_uniform(*parts, "u1")`` and ``(*parts, "u2")``, so
    the output is exactly reproducible across runs.  The two keys share
    their tokenized prefix, which is hashed once; each draw continues a
    copy of that hasher with its own suffix, so the same bytes are hashed.
    """
    prefix = hashlib.sha256(_tokenize(parts) + b"\x1f" if parts else b"")
    uniforms = []
    for suffix in _NORMAL_DRAWS:
        hasher = prefix.copy()
        hasher.update(suffix)
        uniforms.append((_digest_word(hasher) + 0.5) / float(1 << 64))
    u1, u2 = uniforms
    return float(np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2))


class RngFactory:
    """A root RNG key from which related child streams are derived.

    Children are fully independent PCG64 streams; creating a child does
    not consume state from the parent, so call order never changes the
    numbers a component sees.
    """

    def __init__(self, *parts: Any, seed: int = 0) -> None:
        self._parts = tuple(parts) + (int(seed),)

    @property
    def key(self) -> tuple:
        return self._parts

    def child(self, *parts: Any) -> np.random.Generator:
        """Return the child generator for a sub-key."""
        return spawn_rng(*self._parts, *parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngFactory(key={self._parts!r})"
