"""Common-random-numbers configuration streams (Section IV-D).

The paper reduces variance by running every algorithm against the same
random draw: RS on the source machine, RS on the target, and RSp on the
target all evaluate configurations *in the same order*; RSp merely
skips some.  A :class:`SharedStream` is that order — a lazily extended,
duplicate-free sequence of uniformly sampled configurations from one
seeded generator.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SearchError, StreamExhaustedError
from repro.searchspace.space import Configuration, SearchSpace
from repro.utils.rng import spawn_rng

__all__ = ["SharedStream"]

#: Configurations drawn per extension of a stream.  Part of the stream's
#: definition: another size draws another sequence.
BATCH = 64


class SharedStream:
    """A reproducible, duplicate-free configuration sequence."""

    def __init__(self, space: SearchSpace, seed: object = 0) -> None:
        self.space = space
        self.seed = seed
        self._rng: np.random.Generator = spawn_rng("shared-stream", space.name, str(seed))
        self._configs: list[Configuration] = []
        self._seen: set[int] = set()

    def _extend(self, upto: int) -> None:
        while len(self._configs) < upto:
            remaining = self.space.cardinality - len(self._seen)
            if remaining == 0:
                raise StreamExhaustedError(
                    f"stream exhausted the whole space ({self.space.cardinality} configs)"
                )
            # Always extend by one full batch (capped by what is left):
            # the chunk sizes the generator sees are then independent of
            # the access pattern, so prefix(n), random access, and a
            # stream rebuilt after a checkpoint/resume all materialize
            # bit-identical sequences.
            want = min(BATCH, remaining)
            for i in self.space.sample_indices(self._rng, want, self._seen):
                self._seen.add(i)
                self._configs.append(self.space.config_at(i))

    def __getitem__(self, position: int) -> Configuration:
        if position < 0:
            raise SearchError("stream positions are non-negative")
        self._extend(position + 1)
        return self._configs[position]

    def prefix(self, n: int) -> list[Configuration]:
        """The first ``n`` configurations."""
        self._extend(n)
        return list(self._configs[:n])

    def __iter__(self):
        position = 0
        while True:
            try:
                yield self[position]
            except StreamExhaustedError:
                # Clean stop: iterating a stream over a small space
                # simply ends when every configuration has been seen.
                return
            position += 1
