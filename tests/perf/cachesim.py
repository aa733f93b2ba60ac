"""Trace-driven set-associative LRU cache simulator.

The analytic traffic model (:meth:`VariantMetrics.traffic_bytes`) is an
approximation; this simulator is the ground truth it is validated
against.  It consumes the element-access stream emitted by the
reference interpreter (``run_nest(on_access=...)``) and simulates a
set-associative LRU cache with write-allocate/write-back semantics,
reporting miss counts and DRAM traffic.

It is used for *validation at small problem sizes* (the interpreter is
a tree-walker; full 2000^3 runs are out of reach) — the tests check
that the analytic model tracks the simulated traffic within a modest
factor across tiled and untiled variants, and ranks variants the same
way.  Nothing in the library runs it, so it lives with the tests as a
slow, obviously-correct reference.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.errors import EvaluationError
from repro.orio.ast import Stmt
from tests.orio.interp import run_nest

__all__ = ["CacheStats", "LruCache", "simulate_nest"]

ELEM_BYTES = 8


@dataclass
class CacheStats:
    """Counters from one simulation."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    writebacks: int = 0
    line_bytes: int = 64

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def fetch_bytes(self) -> int:
        """Bytes fetched from the next level (miss fills)."""
        return self.misses * self.line_bytes

    @property
    def writeback_bytes(self) -> int:
        return self.writebacks * self.line_bytes

    @property
    def traffic_bytes(self) -> int:
        """Total next-level traffic: fills + write-backs."""
        return self.fetch_bytes + self.writeback_bytes


class LruCache:
    """Set-associative LRU cache with write-allocate / write-back."""

    def __init__(
        self,
        capacity_bytes: int,
        line_bytes: int = 64,
        associativity: int = 8,
    ) -> None:
        if line_bytes <= 0 or capacity_bytes < line_bytes:
            raise EvaluationError("capacity must hold at least one line")
        if associativity < 1:
            raise EvaluationError(f"associativity must be >= 1, got {associativity}")
        n_lines = capacity_bytes // line_bytes
        self.n_sets = max(1, n_lines // associativity)
        self.associativity = associativity
        self.line_bytes = line_bytes
        # Per set: OrderedDict tag -> dirty flag (LRU order = insertion).
        self._sets: list[OrderedDict[int, bool]] = [
            OrderedDict() for _ in range(self.n_sets)
        ]
        self.stats = CacheStats(line_bytes=line_bytes)

    def access(self, byte_address: int, is_write: bool) -> bool:
        """Touch an address; returns True on hit."""
        line = byte_address // self.line_bytes
        set_idx = line % self.n_sets
        tag = line // self.n_sets
        ways = self._sets[set_idx]
        self.stats.accesses += 1
        if tag in ways:
            self.stats.hits += 1
            dirty = ways.pop(tag)
            ways[tag] = dirty or is_write
            return True
        self.stats.misses += 1
        if len(ways) >= self.associativity:
            _victim, victim_dirty = ways.popitem(last=False)
            if victim_dirty:
                self.stats.writebacks += 1
        ways[tag] = is_write
        return False

    def flush(self) -> None:
        """Write back all dirty lines (end-of-run accounting)."""
        for ways in self._sets:
            for dirty in ways.values():
                if dirty:
                    self.stats.writebacks += 1
            ways.clear()


@dataclass
class _Layout:
    """Assigns each array a disjoint base address."""

    bases: dict = field(default_factory=dict)
    next_base: int = 0

    def address(self, array: str, size_bytes: int, flat_index: int) -> int:
        if array not in self.bases:
            # Page-align each array's base (4 KB), as mallocs tend to.
            self.bases[array] = self.next_base
            self.next_base += ((size_bytes + 4095) // 4096 + 1) * 4096
        return self.bases[array] + flat_index * ELEM_BYTES


def simulate_nest(
    nest: Stmt | list[Stmt],
    arrays: Mapping[str, np.ndarray],
    capacity_bytes: int,
    line_bytes: int = 64,
    associativity: int = 8,
) -> CacheStats:
    """Execute a nest and simulate every element access through a cache.

    The ``arrays`` are mutated (the program really runs).  Returns the
    cache statistics, with dirty lines flushed at the end so write-back
    traffic is complete.
    """
    cache = LruCache(capacity_bytes, line_bytes=line_bytes, associativity=associativity)
    layout = _Layout()

    def on_access(name: str, flat: int, is_write: bool) -> None:
        arr = arrays[name]
        cache.access(layout.address(name, arr.nbytes, flat), is_write)

    run_nest(nest, arrays, on_access=on_access)
    cache.flush()
    return cache.stats
