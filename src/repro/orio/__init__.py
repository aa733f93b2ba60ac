"""A working mini-Orio (annotation-driven empirical tuning, Section IV-A).

Orio takes annotated C code, applies source-level loop transformations
(Table I: loop unrolling, cache tiling, register tiling), generates one
code variant per parameter configuration, and measures each variant.
This package rebuilds that pipeline:

* :mod:`repro.orio.ast` — loop-nest IR with constant folding and affine
  index analysis;
* :mod:`repro.orio.parser` — recursive-descent parser for the annotated
  C subset the SPAPT kernels are written in;
* :mod:`repro.orio.annotations` — ``/*@ begin Loop(...) @*/`` extraction;
* :mod:`repro.orio.transforms` — cache tiling, register tiling and
  unroll-and-jam as real AST-to-AST passes;
* :mod:`repro.orio.codegen` — C source emission (with remainder loops);
* :mod:`repro.orio.analysis` — static variant metrics (flops, per-level
  cache traffic, register demand, generated code size) consumed by the
  performance model;
* :mod:`repro.orio.evaluator` — "run" a variant on a machine model,
  charging simulated compile + execution time.
"""

from repro.orio.annotations import AnnotatedKernel
from repro.orio.parser import parse_statement, parse_loop_nest
from repro.orio.codegen import generate_c
from repro.orio.analysis import VariantMetrics, analyze_nest
from repro.orio.evaluator import Measurement, OrioEvaluator

__all__ = [
    "AnnotatedKernel",
    "parse_statement",
    "parse_loop_nest",
    "generate_c",
    "VariantMetrics",
    "analyze_nest",
    "Measurement",
    "OrioEvaluator",
]
