"""The :class:`SearchSpace` — the feasible domain ``D`` of Section II.

The spaces in the paper are far too large to enumerate (up to 2.57e12
configurations, Table III), so the space works with an integer
*linearization*: every configuration corresponds to exactly one mixed-
radix integer in ``[0, |D|)``.  Uniform sampling without replacement is
done by drawing integers and rejecting duplicates, which is exact and
cheap while the number of draws is tiny relative to ``|D|`` (the paper
samples at most ``N = 10,000``).
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.errors import ConfigurationError, SearchSpaceError
from repro.searchspace.parameters import Parameter

__all__ = ["Configuration", "SearchSpace"]


class Configuration(Mapping[str, Any]):
    """An immutable assignment of a value to every parameter of a space.

    Behaves as a read-only mapping ``name -> value``.  Hashable, so
    configurations can be used in sets (random search *without
    replacement* needs exactly that).
    """

    __slots__ = ("_space", "_values", "_index")

    def __init__(self, space: "SearchSpace", values: Mapping[str, Any]) -> None:
        missing = [p.name for p in space.parameters if p.name not in values]
        if missing:
            raise ConfigurationError(f"missing values for parameters: {missing}")
        extra = [k for k in values if k not in space.names]
        if extra:
            raise ConfigurationError(f"unknown parameters: {extra}")
        canon = {}
        for p in space.parameters:
            # Round-trip through the parameter to validate and canonicalize.
            canon[p.name] = p.value_at(p.index_of(values[p.name]))
        object.__setattr__(self, "_space", space)
        object.__setattr__(self, "_values", canon)
        object.__setattr__(self, "_index", space._linearize(canon))

    @classmethod
    def _trusted(
        cls, space: "SearchSpace", canon: dict[str, Any], index: int
    ) -> "Configuration":
        """Internal fast path: values already canonical, index known.

        Used by :meth:`SearchSpace.config_at`, which constructs values
        directly from parameter domains — re-validating them would
        double the cost of every pool sample.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "_space", space)
        object.__setattr__(self, "_values", canon)
        object.__setattr__(self, "_index", index)
        return self

    def __setattr__(self, name: str, value: Any) -> None:  # pragma: no cover
        raise AttributeError("Configuration is immutable")

    @property
    def space(self) -> "SearchSpace":
        return self._space

    @property
    def index(self) -> int:
        """The configuration's position in the space's linearization."""
        return self._index

    def __getitem__(self, name: str) -> Any:
        return self._values[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __hash__(self) -> int:
        return hash((id(self._space), self._index))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Configuration)
            and self._space is other._space
            and self._index == other._index
        )

    def replace(self, **changes: Any) -> "Configuration":
        """A copy with some parameter values replaced."""
        vals = dict(self._values)
        vals.update(changes)
        return Configuration(self._space, vals)

    def encode(self) -> np.ndarray:
        """Numeric feature vector for surrogate models."""
        return np.array(
            [p.encode(self._values[p.name]) for p in self._space.parameters], dtype=float
        )

    def __repr__(self) -> str:
        body = ", ".join(f"{k}={v!r}" for k, v in self._values.items())
        return f"Configuration({body})"


class SearchSpace:
    """An ordered product of finite parameters.

    Parameters
    ----------
    parameters:
        The axes of the space, in a fixed order that defines both the
        feature layout seen by surrogate models and the mixed-radix
        linearization.
    name:
        Optional label used in reports.
    """

    def __init__(self, parameters: Sequence[Parameter], name: str = "space") -> None:
        params = list(parameters)
        if not params:
            raise SearchSpaceError("a search space needs at least one parameter")
        names = [p.name for p in params]
        if len(set(names)) != len(names):
            raise SearchSpaceError(f"duplicate parameter names in {names}")
        self.name = name
        self.parameters: tuple[Parameter, ...] = tuple(params)
        self.names: tuple[str, ...] = tuple(names)
        self._by_name = {p.name: p for p in params}
        # Mixed-radix place values: last parameter varies fastest.
        radices = [p.cardinality for p in params]
        place = 1
        places = []
        for r in reversed(radices):
            places.append(place)
            place *= r
        self._places = list(reversed(places))
        self._cardinality = place

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def cardinality(self) -> int:
        """``|D|`` — the number of allowable configurations."""
        return self._cardinality

    @property
    def dimension(self) -> int:
        """Number of tunable parameters (``ni`` in Table III)."""
        return len(self.parameters)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __repr__(self) -> str:
        return f"SearchSpace({self.name!r}, dim={self.dimension}, |D|={self.cardinality:.3g})"

    # ------------------------------------------------------------------
    # Configuration <-> index bijection
    # ------------------------------------------------------------------
    def _linearize(self, values: Mapping[str, Any]) -> int:
        index = 0
        for p, place in zip(self.parameters, self._places):
            index += p.index_of(values[p.name]) * place
        return index

    def configuration(self, values: Mapping[str, Any]) -> Configuration:
        """Build (and validate) a configuration from a value mapping."""
        return Configuration(self, values)

    def config_at(self, index: int) -> Configuration:
        """The configuration with the given linear index."""
        index = int(index)
        if not 0 <= index < self._cardinality:
            raise SearchSpaceError(
                f"index {index} out of range for space of size {self._cardinality}"
            )
        original = index
        values = {}
        for p, place in zip(self.parameters, self._places):
            digit, index = divmod(index, place)
            values[p.name] = p.value_at(digit)
        return Configuration._trusted(self, values, original)

    def default(self) -> Configuration:
        """The 'no transformation' configuration: index 0 of every axis.

        For the SPAPT kernels this is unroll factor 1 and tile size 1 on
        every loop — i.e. the untransformed source, the paper's
        default/initial configuration.
        """
        return self.config_at(0)

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def sample_indices(
        self,
        rng: np.random.Generator,
        n: int,
        exclude: Iterable[int] = (),
    ) -> list[int]:
        """``n`` distinct uniform indices, avoiding those in ``exclude``.

        Exact rejection sampling; falls back to a full permutation when
        the request is a large fraction of the space (only feasible, and
        only needed, for small spaces).
        """
        if n < 0:
            raise SearchSpaceError(f"cannot sample a negative count: {n}")
        excluded = set(int(i) for i in exclude)
        available = self._cardinality - len(excluded)
        if n > available:
            raise SearchSpaceError(
                f"requested {n} distinct configurations but only {available} remain"
            )
        if self._cardinality <= 4 * (n + len(excluded)) and self._cardinality <= 10_000_000:
            pool = [i for i in range(self._cardinality) if i not in excluded]
            perm = rng.permutation(len(pool))[:n]
            return [pool[i] for i in perm]
        chosen: list[int] = []
        seen = set(excluded)
        # Draw in batches; duplicates are vanishingly rare for |D| >> n.
        # Spaces larger than int64 (e.g. the 247-dimensional gcc-flag
        # space) draw one digit per axis — the product of independent
        # uniform digits is exactly a uniform mixed-radix index.
        huge = self._cardinality > (1 << 62)
        while len(chosen) < n:
            count = max(16, 2 * (n - len(chosen)))
            if huge:
                for i in self._random_indices_bigint(rng, count):
                    if i not in seen:
                        seen.add(i)
                        chosen.append(i)
                        if len(chosen) == n:
                            break
                continue
            batch = rng.integers(0, self._cardinality, size=count)
            # Vectorized replay of the scalar scan: within the batch the
            # first occurrence of each new value wins, in draw order,
            # and values already seen are skipped entirely.
            _, first = np.unique(batch, return_index=True)
            keep = np.zeros(count, dtype=bool)
            keep[first] = True
            if seen:
                keep[keep] = ~np.isin(
                    batch[keep],
                    np.fromiter(seen, dtype=np.int64, count=len(seen)),
                )
            picks = [int(v) for v in batch[keep][: n - len(chosen)]]
            chosen.extend(picks)
            seen.update(picks)
        return chosen

    def random_index(self, rng: np.random.Generator) -> int:
        """One uniform index, drawn with replacement.

        Spaces beyond the int64 range draw one digit per axis, as
        :meth:`sample_indices` does.
        """
        if self._cardinality > (1 << 62):
            return self._random_indices_bigint(rng, 1)[0]
        return int(rng.integers(0, self._cardinality))

    def _random_indices_bigint(self, rng: np.random.Generator, count: int) -> list[int]:
        """Uniform indices for spaces beyond the int64 range.

        Draws one digit column per axis (vectorized) and combines the
        mixed-radix rows with Python big-int arithmetic.
        """
        columns = [
            rng.integers(0, p.cardinality, size=count) for p in self.parameters
        ]
        out = []
        for row in range(count):
            index = 0
            for col, place in zip(columns, self._places):
                index += int(col[row]) * place
            out.append(index)
        return out

    def sample(
        self,
        rng: np.random.Generator,
        n: int,
        exclude: Iterable[Configuration] = (),
    ) -> list[Configuration]:
        """``n`` distinct uniform configurations (without replacement)."""
        indices = self.sample_indices(rng, n, (c.index for c in exclude))
        return [self.config_at(i) for i in indices]

    # ------------------------------------------------------------------
    # ML encoding
    # ------------------------------------------------------------------
    def encode_many(self, configs: Sequence[Configuration]) -> np.ndarray:
        """Stack configuration encodings into an ``(n, dim)`` matrix."""
        if not configs:
            return np.empty((0, self.dimension), dtype=float)
        return np.vstack([c.encode() for c in configs])

    def encode_indices(self, indices: Sequence[int]) -> np.ndarray:
        """Encoded ``(n, dim)`` matrix straight from linear indices.

        Exactly ``encode_many([config_at(i) for i in indices])`` without
        materializing a Configuration per row: each feature column comes
        from the vectorized mixed-radix digit ``(index // place) % card``
        fed through the parameter's :meth:`~Parameter.encode_digits`.
        Spaces beyond the int64 range keep the per-row big-int path.
        """
        n = len(indices)
        if n == 0:
            return np.empty((0, self.dimension), dtype=float)
        if self._cardinality > (1 << 62):
            return np.vstack([self.config_at(i).encode() for i in indices])
        idx = np.asarray(indices, dtype=np.int64)
        if idx.min() < 0 or idx.max() >= self._cardinality:
            raise SearchSpaceError(
                f"index out of range for space of size {self._cardinality}"
            )
        out = np.empty((n, self.dimension), dtype=float)
        for j, (p, place) in enumerate(zip(self.parameters, self._places)):
            out[:, j] = p.encode_digits((idx // place) % p.cardinality)
        return out

    def feature_names(self) -> list[str]:
        """Feature-column names matching :meth:`encode_many`'s layout."""
        return list(self.names)
