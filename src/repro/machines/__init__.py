"""Parametric models of the paper's evaluation machines (Table II).

The paper runs on five physical machines; this package replaces them
with analytic architecture models.  A :class:`MachineSpec` carries the
published Table II facts (cores, clock, cache sizes, memory) plus the
microarchitectural parameters the cost model needs (peak flops/cycle,
vector width, register file size, cache/DRAM bandwidths, reorder
capability) and a *response vector* that scales how strongly each
performance effect expresses itself on that machine.  Cross-machine
correlation of configuration runtimes — the phenomenon the paper
exploits — emerges from the shared cost-model physics plus the distance
between response vectors.
"""

from repro.machines.spec import CacheLevel, MachineSpec
from repro.machines.registry import (
    MACHINES,
    SANDYBRIDGE,
    WESTMERE,
    XEON_PHI,
    POWER7,
    XGENE,
    get_machine,
)
from repro.machines.compiler import CompilerModel, GCC, ICC, get_compiler
from repro.machines.response import ResponseVector, response_distance

__all__ = [
    "CacheLevel",
    "MachineSpec",
    "MACHINES",
    "SANDYBRIDGE",
    "WESTMERE",
    "XEON_PHI",
    "POWER7",
    "XGENE",
    "get_machine",
    "CompilerModel",
    "GCC",
    "ICC",
    "get_compiler",
    "ResponseVector",
    "response_distance",
]
