"""Machine response vectors.

The cost model (:mod:`repro.perf.costmodel`) expresses a code variant's
runtime as shared roofline physics modulated by machine-specific
*sensitivities*: how hard register spills hurt, how costly loop
overhead is, how much instruction-cache pressure matters, and so on.
Each machine carries a :class:`ResponseVector` of these sensitivities.

Two machines with nearby response vectors rank configurations almost
identically (the Westmere/Sandybridge situation of Figure 1); a machine
with a distant vector ranks them differently (the X-Gene failure case
of Section V).  :func:`response_distance` quantifies that dissimilarity
— the "empirical methods that can assess the dissimilarity" the paper
calls for in its conclusion.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

__all__ = ["ResponseVector", "response_distance"]


@dataclass(frozen=True)
class ResponseVector:
    """Per-machine sensitivity coefficients for the cost model.

    All fields are dimensionless multipliers around 1.0 (except
    ``noise_sigma``, a lognormal scale).  The cost model multiplies each
    physical penalty term by the matching sensitivity, so a machine
    with ``spill_sensitivity=2.5`` suffers register spills 2.5x more
    than the reference architecture.
    """

    spill_sensitivity: float = 1.0  # register-spill penalty weight
    loop_overhead_sensitivity: float = 1.0  # branch/increment cost weight
    icache_sensitivity: float = 1.0  # unrolled-code-size penalty weight
    latency_sensitivity: float = 1.0  # dependence-chain stall weight
    bandwidth_contention: float = 1.0  # multi-core DRAM contention factor
    prefetch_quality: float = 1.0  # streaming-access mitigation (higher=better)
    tlb_sensitivity: float = 1.0  # large-stride page-walk weight
    vector_alignment_sensitivity: float = 1.0  # penalty for non-multiple-of-VL tiles
    noise_sigma: float = 0.02  # lognormal measurement-noise scale
    quirk_sigma: float = 0.06  # systematic per-configuration quirk scale
    systematic_compression: float = 0.75  # how faithfully code structure maps to time
    # (< 1 compresses systematic differences between variants in log
    # space around the machine's roofline reference point: a mature
    # compiler/microarchitecture expresses source-level structure
    # faithfully; an immature toolchain — first-generation X-Gene —
    # flattens it, leaving idiosyncratic quirks to dominate rankings.)

    def as_array(self) -> np.ndarray:
        """The sensitivities as a vector (``noise_sigma`` excluded)."""
        skip = ("noise_sigma", "quirk_sigma")
        vals = [getattr(self, f.name) for f in fields(self) if f.name not in skip]
        return np.array(vals, dtype=float)


def response_distance(a: ResponseVector, b: ResponseVector) -> float:
    """Log-space Euclidean distance between two response vectors.

    Zero for identical machines; grows with microarchitectural
    dissimilarity.  Section VII of the paper asks for exactly such a
    quantification; the experiments package correlates this distance
    with the empirically observed cross-machine rank correlation.
    """
    va, vb = a.as_array(), b.as_array()
    if np.any(va <= 0) or np.any(vb <= 0):
        raise ValueError("response sensitivities must be positive")
    return float(np.linalg.norm(np.log(va) - np.log(vb)))
