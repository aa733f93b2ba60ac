"""Machine specifications (Table II plus cost-model parameters)."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import MachineError
from repro.machines.response import ResponseVector

__all__ = ["CacheLevel", "MachineSpec"]


@dataclass(frozen=True)
class CacheLevel:
    """One level of the data-cache hierarchy.

    ``bandwidth_bytes_per_cycle`` is per core; ``shared`` marks levels
    whose capacity is divided among the active cores.
    """

    name: str
    size_kb: float
    latency_cycles: float
    bandwidth_bytes_per_cycle: float
    shared: bool = False

    @property
    def size_bytes(self) -> int:
        return int(self.size_kb * 1024)

    def effective_size_bytes(self, active_cores: int) -> int:
        """Capacity available to one core when ``active_cores`` share it."""
        if active_cores < 1:
            raise MachineError(f"active_cores must be >= 1, got {active_cores}")
        if self.shared:
            return max(1, self.size_bytes // active_cores)
        return self.size_bytes


@dataclass(frozen=True)
class MachineSpec:
    """A machine model: Table II facts + microarchitecture + response.

    The Table II columns map to ``cores``, ``clock_ghz``, the cache
    sizes and ``memory_gb``.  The remaining fields parametrize the cost
    model; they are published-spec estimates for each processor and are
    documented per machine in :mod:`repro.machines.registry`.
    """

    name: str  # registry key, e.g. "sandybridge"
    display_name: str  # e.g. "Intel E5-2687W (Sandybridge)"
    vendor: str  # "intel" | "ibm" | "apm"
    isa: str  # "x86_64" | "ppc64" | "aarch64" | "k1om"
    cores: int
    clock_ghz: float
    caches: tuple[CacheLevel, ...]  # ordered L1 -> last level
    memory_gb: float
    dram_bandwidth_gbs: float
    dram_latency_ns: float
    line_bytes: int
    flops_per_cycle: float  # peak DP flops per cycle per core
    vector_doubles: int  # SIMD lanes (doubles)
    fp_registers: int  # architectural FP/vector registers
    issue_width: int
    out_of_order_window: int  # ~ROB size; small => in-order-like
    smt_threads: int = 1
    compile_statements_per_sec: float = 50_000.0  # compiler throughput model
    compile_overhead_s: float = 1.0  # per-variant fixed compile cost
    response: ResponseVector = field(default_factory=ResponseVector)

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise MachineError(f"{self.name}: cores must be >= 1")
        if self.clock_ghz <= 0:
            raise MachineError(f"{self.name}: clock must be positive")
        if not self.caches:
            raise MachineError(f"{self.name}: need at least one cache level")
        sizes = [c.size_kb for c in self.caches]
        if sizes != sorted(sizes):
            raise MachineError(f"{self.name}: cache sizes must be non-decreasing")
        if self.line_bytes not in (32, 64, 128, 256):
            raise MachineError(f"{self.name}: implausible line size {self.line_bytes}")
        if self.vector_doubles < 1 or self.fp_registers < 1:
            raise MachineError(f"{self.name}: invalid vector/register configuration")

    # ------------------------------------------------------------------
    @property
    def clock_hz(self) -> float:
        return self.clock_ghz * 1e9

    @property
    def peak_gflops_core(self) -> float:
        """Peak double-precision GFLOP/s of one core."""
        return self.flops_per_cycle * self.clock_ghz

    @property
    def peak_gflops(self) -> float:
        """Peak double-precision GFLOP/s of the whole chip."""
        return self.peak_gflops_core * self.cores

    @property
    def dram_bytes_per_cycle(self) -> float:
        """Chip-level DRAM bandwidth expressed per core cycle."""
        return self.dram_bandwidth_gbs * 1e9 / self.clock_hz

    def cache(self, name: str) -> CacheLevel:
        for level in self.caches:
            if level.name == name:
                return level
        raise MachineError(f"{self.name} has no cache level {name!r}")

    def summary_row(self) -> list:
        """The machine's Table II row (name, processor, cores, ...)."""
        by_name = {c.name: c for c in self.caches}
        l3 = by_name.get("L3")
        return [
            self.name,
            self.display_name,
            self.cores,
            self.clock_ghz,
            by_name["L1"].size_kb,
            by_name["L2"].size_kb,
            None if l3 is None else l3.size_kb / 1024.0,
            self.memory_gb,
        ]
