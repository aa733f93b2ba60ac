"""Parameter primitives for autotuning search spaces.

Each parameter is a finite, ordered domain with

* a bijection between its values and indices ``0 .. cardinality-1``,
* a numeric *encoding* used as a feature by surrogate models (power-of-
  two parameters encode as their exponent so that the model sees the
  natural log-scale the hardware responds to), and
* a ``mutate`` operation used by the local-search techniques in
  :mod:`repro.tuner`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Sequence

import numpy as np

from repro.errors import SearchSpaceError

__all__ = [
    "Parameter",
    "IntegerParameter",
    "PowerOfTwoParameter",
    "BooleanParameter",
    "EnumParameter",
]

_NAME_FORBIDDEN = set(" \t\n,;=")


class Parameter(ABC):
    """A named, finite, ordered tuning parameter."""

    def __init__(self, name: str) -> None:
        if not name or _NAME_FORBIDDEN.intersection(name):
            raise SearchSpaceError(f"invalid parameter name: {name!r}")
        self.name = name

    @property
    @abstractmethod
    def cardinality(self) -> int:
        """Number of distinct values."""

    @abstractmethod
    def value_at(self, index: int) -> Any:
        """The value at ordinal ``index`` (0-based)."""

    @abstractmethod
    def index_of(self, value: Any) -> int:
        """Inverse of :meth:`value_at`; raises if ``value`` not in domain."""

    @abstractmethod
    def encode(self, value: Any) -> float:
        """Numeric feature representation of ``value`` for ML models."""

    def encode_digits(self, digits: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`encode` over an int array of ordinals.

        Must equal ``[encode(value_at(d)) for d in digits]`` exactly;
        the concrete parameter types override with closed-form
        arithmetic, this generic fallback guarantees the contract for
        custom subclasses.
        """
        return np.array(
            [self.encode(self.value_at(int(d))) for d in digits], dtype=float
        )

    def values(self) -> list:
        """All values in index order (domains here are small per axis)."""
        return [self.value_at(i) for i in range(self.cardinality)]

    def sample(self, rng: np.random.Generator) -> Any:
        """A uniformly random value."""
        return self.value_at(int(rng.integers(0, self.cardinality)))

    def mutate(self, value: Any, rng: np.random.Generator, scale: float = 1.0) -> Any:
        """A small random move away from ``value`` (never returns ``value``
        when the domain has more than one element).

        The default implementation takes a geometric-ish step in index
        space; subclasses may override.
        """
        n = self.cardinality
        if n <= 1:
            return value
        idx = self.index_of(value)
        step = max(1, int(round(abs(rng.normal(0.0, scale * max(1.0, n / 8.0))))))
        direction = 1 if rng.random() < 0.5 else -1
        new = idx + direction * step
        new = int(np.clip(new, 0, n - 1))
        if new == idx:
            new = idx + 1 if idx + 1 < n else idx - 1
        return self.value_at(new)

    def _check_index(self, index: int) -> int:
        index = int(index)
        if not 0 <= index < self.cardinality:
            raise SearchSpaceError(
                f"index {index} out of range for parameter {self.name!r} "
                f"(cardinality {self.cardinality})"
            )
        return index

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, |domain|={self.cardinality})"

    def __eq__(self, other: object) -> bool:
        return (
            type(self) is type(other)
            and self.name == other.name  # type: ignore[attr-defined]
            and self.values() == other.values()  # type: ignore[attr-defined]
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.name, tuple(map(str, self.values()))))


class IntegerParameter(Parameter):
    """Consecutive integers ``low .. high`` inclusive.

    Loop-unroll factors in Table I (1, ..., 32) use this type.
    """

    def __init__(self, name: str, low: int, high: int) -> None:
        super().__init__(name)
        if high < low:
            raise SearchSpaceError(f"{name}: empty range [{low}, {high}]")
        self.low = int(low)
        self.high = int(high)

    @property
    def cardinality(self) -> int:
        return self.high - self.low + 1

    def value_at(self, index: int) -> int:
        return self.low + self._check_index(index)

    def index_of(self, value: Any) -> int:
        v = int(value)
        if v != value or not self.low <= v <= self.high:
            raise SearchSpaceError(f"{self.name}: value {value!r} not in [{self.low}, {self.high}]")
        return v - self.low

    def encode(self, value: Any) -> float:
        return float(int(value))

    def encode_digits(self, digits):
        # encode(value_at(d)) == float(low + d): exact in float64 for
        # any domain this reproduction uses.
        return (digits + self.low).astype(float)


class PowerOfTwoParameter(Parameter):
    """Powers of two ``2**min_exp .. 2**max_exp``.

    Cache-tiling (2^0..2^11) and register-tiling (2^0..2^5) sizes in
    Table I use this type.  The ML encoding is the *exponent*, matching
    the log-scale sensitivity of the memory hierarchy.
    """

    def __init__(self, name: str, min_exp: int, max_exp: int) -> None:
        super().__init__(name)
        if max_exp < min_exp:
            raise SearchSpaceError(f"{name}: empty exponent range [{min_exp}, {max_exp}]")
        if min_exp < 0:
            raise SearchSpaceError(f"{name}: negative exponent {min_exp}")
        self.min_exp = int(min_exp)
        self.max_exp = int(max_exp)

    @property
    def cardinality(self) -> int:
        return self.max_exp - self.min_exp + 1

    def value_at(self, index: int) -> int:
        return 1 << (self.min_exp + self._check_index(index))

    def index_of(self, value: Any) -> int:
        v = int(value)
        if v != value or v <= 0 or v & (v - 1):
            raise SearchSpaceError(f"{self.name}: {value!r} is not a positive power of two")
        exp = v.bit_length() - 1
        if not self.min_exp <= exp <= self.max_exp:
            raise SearchSpaceError(
                f"{self.name}: 2^{exp} outside [2^{self.min_exp}, 2^{self.max_exp}]"
            )
        return exp - self.min_exp

    def encode(self, value: Any) -> float:
        return float(self.min_exp + self.index_of(value))

    def encode_digits(self, digits):
        return (digits + self.min_exp).astype(float)


class BooleanParameter(Parameter):
    """An on/off switch (compiler flags, pragma toggles)."""

    def __init__(self, name: str) -> None:
        super().__init__(name)

    @property
    def cardinality(self) -> int:
        return 2

    def value_at(self, index: int) -> bool:
        return bool(self._check_index(index))

    def index_of(self, value: Any) -> int:
        if not isinstance(value, (bool, np.bool_)):
            raise SearchSpaceError(f"{self.name}: expected a bool, got {value!r}")
        return int(bool(value))

    def encode(self, value: Any) -> float:
        return float(self.index_of(value))

    def encode_digits(self, digits):
        return digits.astype(float)

    def mutate(self, value: Any, rng: np.random.Generator, scale: float = 1.0) -> bool:
        return not bool(value)


class EnumParameter(Parameter):
    """An unordered categorical choice (e.g. HPL broadcast algorithm).

    The ML encoding is the ordinal index; the recursive-partitioning
    models this library ships can express arbitrary subsets of a small
    categorical axis through repeated splits, so an ordinal code
    suffices.
    """

    def __init__(self, name: str, choices: Sequence[Any]) -> None:
        super().__init__(name)
        choices = list(choices)
        if not choices:
            raise SearchSpaceError(f"{name}: empty choice list")
        if len(set(map(repr, choices))) != len(choices):
            raise SearchSpaceError(f"{name}: duplicate choices")
        self.choices = choices
        self._index = {repr(c): i for i, c in enumerate(choices)}

    @property
    def cardinality(self) -> int:
        return len(self.choices)

    def value_at(self, index: int) -> Any:
        return self.choices[self._check_index(index)]

    def index_of(self, value: Any) -> int:
        key = repr(value)
        if key not in self._index:
            raise SearchSpaceError(f"{self.name}: {value!r} not among {self.choices!r}")
        return self._index[key]

    def encode(self, value: Any) -> float:
        return float(self.index_of(value))

    def encode_digits(self, digits):
        return digits.astype(float)

    def mutate(self, value: Any, rng: np.random.Generator, scale: float = 1.0) -> Any:
        # Categorical: jump to any other choice uniformly.
        n = self.cardinality
        if n <= 1:
            return value
        idx = self.index_of(value)
        new = int(rng.integers(0, n - 1))
        if new >= idx:
            new += 1
        return self.value_at(new)
