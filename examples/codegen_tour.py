#!/usr/bin/env python3
"""A tour of the mini-Orio pipeline: annotation -> transforms -> C code.

Shows what actually happens to a kernel when the autotuner picks a
configuration: the annotated source is parsed, cache/register tiling
and unroll-and-jam are applied as real AST transformations, C code is
generated (with min/max-clamped tile loops and remainder loops), and
the static analyzer prices the variant on two machines (it binds the
configuration's sizes into an analysis of the transform's shape; the
generated AST is for code generation only).

Run:  python examples/codegen_tour.py
"""

from repro.kernels import get_kernel
from repro.machines import GCC, SANDYBRIDGE, XGENE
from repro.perf.costmodel import CostModel


def main() -> None:
    # A small LU instance so the generated code stays readable.
    kernel = get_kernel("lu", n=64)
    print("=== annotated source ===")
    print(kernel.source.strip())

    config = kernel.space.configuration(
        {
            "U_K": 1, "U_I": 2, "U_J": 2,
            "T1_K": 8, "T1_I": 16, "T1_J": 16,
            "RT_K": 1, "RT_I": 1, "RT_J": 4,
        }
    )
    print("\n=== configuration ===")
    for name, value in config.items():
        print(f"  {name:5s} = {value}")

    print("\n=== generated C (tiled + register-tiled + unrolled) ===")
    print(kernel.generate_source(config))

    metrics = kernel.metrics_for(config)[0]
    print("=== static analysis ===")
    print(f"  flops                {metrics.flops:.3e}")
    print(f"  loads / stores       {metrics.loads:.3e} / {metrics.stores:.3e}")
    print(f"  loop-header execs    {metrics.header_executions:.3e}")
    print(f"  generated statements {metrics.statements_generated}")
    print(f"  register demand      {metrics.register_demand:.1f}")
    print(f"  body replication     {metrics.replication}x")
    print(f"  stride-1 fraction    {metrics.stride1_fraction:.2f}")

    print("\n=== cost model: same variant, two machines ===")
    for machine in (SANDYBRIDGE, XGENE):
        model = CostModel(machine, GCC)
        bd = model.breakdown(metrics)
        seconds = model.runtime_seconds(metrics, config.index, kernel.tag)
        print(
            f"  {machine.display_name:38s} {seconds * 1e3:9.2f} ms   "
            f"bound={bd.bound:8s} spill={bd.spill_factor:.2f} "
            f"vec={bd.vector_speedup:.2f}"
        )


if __name__ == "__main__":
    main()
