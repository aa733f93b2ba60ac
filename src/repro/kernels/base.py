"""The SPAPT-style kernel abstraction.

A kernel bundles an annotated C source (possibly several annotated
phases), the problem input size, and the tuning search space, and
produces transformed variants and their static metrics for any
configuration.  Metric computation is cached per configuration index —
the same variant is measured on several machines during a transfer
experiment, and the metrics are machine-independent.  The cache is a
bounded LRU: once full, each miss evicts the least recently used entry.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.errors import SearchSpaceError
from repro.orio.analysis import VariantMetrics, analyze_variant
from repro.orio.annotations import AnnotatedKernel, parse_annotated_blocks
from repro.orio.codegen import generate_c
from repro.orio.transforms.pipeline import TransformedVariant, TransformPlan, compose
from repro.searchspace.space import Configuration, SearchSpace

__all__ = ["KernelInfo", "SpaptKernel"]

_METRICS_CACHE_LIMIT = 250_000


@dataclass(frozen=True)
class KernelInfo:
    """The Table III row of a kernel."""

    name: str
    n_parameters: int
    search_space_size: float
    input_size: str


class SpaptKernel:
    """One SPAPT search problem: kernel + input size + tunable space.

    Subclasses (or factory functions) provide the annotated source, the
    space, and the mapping from configuration booleans to evaluator
    options.
    """

    def __init__(
        self,
        name: str,
        tag: str,
        source: str,
        space: SearchSpace,
        consts: dict[str, int],
        input_size: str,
        boundedness: str,
        description: str = "",
        scalar_option_params: dict[str, str] | None = None,
    ) -> None:
        self.name = name
        self.tag = tag
        self.source = source
        self.space = space
        self.consts = dict(consts)
        self.input_size = input_size
        self.boundedness = boundedness
        self.description = description
        self.scalar_option_params = dict(scalar_option_params or {})
        self.nests: tuple[AnnotatedKernel, ...] = tuple(
            parse_annotated_blocks(source, consts)
        )
        # Every annotation parameter must exist in the space.
        for nest in self.nests:
            for pname in nest.spec.parameter_names():
                if pname not in space:
                    raise SearchSpaceError(
                        f"kernel {name!r}: annotation references unknown parameter {pname!r}"
                    )
        for pname in self.scalar_option_params.values():
            if pname not in space:
                raise SearchSpaceError(
                    f"kernel {name!r}: option bound to unknown parameter {pname!r}"
                )
        self._metrics_cache: OrderedDict[int, tuple[VariantMetrics, ...]] = OrderedDict()

    # ------------------------------------------------------------------
    def info(self) -> KernelInfo:
        """The kernel's Table III row."""
        return KernelInfo(
            name=self.name,
            n_parameters=self.space.dimension,
            search_space_size=float(self.space.cardinality),
            input_size=self.input_size,
        )

    def variants_for(self, config: Configuration) -> list[TransformedVariant]:
        """Composed (transformed) nests for a configuration."""
        self._check_config(config)
        out = []
        for nest in self.nests:
            plan = TransformPlan.from_spec(nest.spec, config)
            out.append(compose(nest.nest, plan))
        return out

    def metrics_for(self, config: Configuration) -> tuple[VariantMetrics, ...]:
        """Static metrics per nest, LRU-cached by configuration index."""
        self._check_config(config)
        cache = self._metrics_cache
        cached = cache.get(config.index)
        if cached is not None:
            cache.move_to_end(config.index)
            return cached
        metrics = tuple(analyze_variant(v) for v in self.variants_for(config))
        if len(cache) >= _METRICS_CACHE_LIMIT:
            cache.popitem(last=False)
        cache[config.index] = metrics
        return metrics

    def scalar_options(self, config: Configuration) -> dict[str, object]:
        """Evaluator options (vectorize, scalar replacement, ...) from
        the configuration's boolean parameters."""
        self._check_config(config)
        return {
            option: config[param] for option, param in self.scalar_option_params.items()
        }

    def generate_source(
        self, config: Configuration, max_statements: int = 100_000
    ) -> str:
        """The full generated C text of this configuration's variant(s).

        When the configuration enables scalar replacement (``SCR``),
        the corresponding AST pass is applied so the emitted code shows
        the register-promoted reduction targets.
        """
        from repro.orio.transforms.scalarrep import ScalarReplacement

        scr = bool(self.scalar_options(config).get("scalar_replacement", False))
        parts = []
        loop_vars = set()
        variants = self.variants_for(config)
        if scr:
            rewritten = []
            for variant in variants:
                try:
                    nest = ScalarReplacement().apply(variant.nest)
                except Exception:
                    nest = variant.nest  # not applicable: emit unchanged
                rewritten.append(
                    TransformedVariant(nest=nest, plan=variant.plan, roles=variant.roles)
                )
            variants = rewritten
        for variant in variants:
            for var in variant.roles:
                loop_vars.add(var)
        declare = {v: "int" for v in sorted(loop_vars)}
        for i, variant in enumerate(variants):
            if len(variants) > 1:
                parts.append(f"/* phase {i + 1} */")
            parts.append(
                generate_c(variant.nest, declare=declare if i == 0 else None,
                           max_statements=max_statements)
            )
        return "\n".join(parts)

    def _check_config(self, config: Configuration) -> None:
        if config.space is not self.space:
            raise SearchSpaceError(
                f"configuration is not from kernel {self.name!r}'s search space"
            )

    def __repr__(self) -> str:
        return (
            f"SpaptKernel({self.name!r}, dim={self.space.dimension}, "
            f"|D|={self.space.cardinality:.3g}, input={self.input_size})"
        )
