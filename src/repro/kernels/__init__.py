"""The SPAPT test-suite kernels (Section IV-C, Table III).

Each factory builds a fresh :class:`~repro.kernels.base.SpaptKernel`
with the paper's input size by default; pass a smaller ``n`` for
fast tests.  :func:`get_kernel` looks kernels up by name.
"""

from __future__ import annotations

from repro.errors import ReproError
from repro.kernels.base import KernelInfo, SpaptKernel
from repro.kernels.mm import make_mm
from repro.kernels.atax import make_atax
from repro.kernels.cor import make_cor
from repro.kernels.lu import make_lu
from repro.kernels.extra import EXTRA_KERNELS, make_bicg, make_gemver, make_mvt

__all__ = [
    "KernelInfo",
    "SpaptKernel",
    "make_mm",
    "make_atax",
    "make_cor",
    "make_lu",
    "make_bicg",
    "make_mvt",
    "make_gemver",
    "EXTRA_KERNELS",
    "KERNELS",
    "get_kernel",
    "kernel_names",
]

# The paper's four problems (Table III)...
KERNELS = {
    "mm": make_mm,
    "atax": make_atax,
    "cor": make_cor,
    "lu": make_lu,
}
# ...plus extension problems from the wider SPAPT suite.
KERNELS.update(EXTRA_KERNELS)


def kernel_names() -> list[str]:
    """The paper's kernels, in Table III order."""
    return [n for n in KERNELS if n not in EXTRA_KERNELS]


def get_kernel(name: str, n: int | None = None) -> SpaptKernel:
    """Build a kernel by name, optionally with a custom input size."""
    key = name.strip().lower()
    try:
        factory = KERNELS[key]
    except KeyError:
        raise ReproError(f"unknown kernel {name!r}; known: {sorted(KERNELS)}") from None
    return factory(n) if n is not None else factory()
