"""Meta-tuning: the tuner tuning itself.

Willemsen et al. ("Tuning the Tuner", PAPERS.md) show that a tuner's
own hyperparameters dominate autotuning outcomes.  This package closes
the loop over :class:`repro.spec.TunerSpec`:

* :mod:`repro.meta.space` exposes the spec's knobs as an ordinary
  :class:`repro.searchspace.SearchSpace` (one enum axis per dotted
  spec path), so the meta-level search reuses the exact machinery the
  object-level search runs on;
* :mod:`repro.meta.campaign` scores the default spec and a sample of
  that space on (kernel × machine-pair × seed) cells through the sweep
  driver :func:`repro.experiments.harness.score_specs` — each cell a
  full inner transfer session scored by
  :func:`~repro.experiments.harness.evaluate_spec`, journaled and
  SIGKILL-resumable with zero re-executed cells — and emits the
  per-(kernel, machine-pair) recommended-config table
  (``benchmarks/results/meta_recommendations.json`` + txt report).

See ``docs/meta.md`` for the meta-space, the sweep driver, and the
recommendation table format.
"""

from repro.meta.space import META_AXES, meta_space, spec_at

__all__ = [
    "META_AXES",
    "meta_space",
    "spec_at",
    "run_meta_campaign",
    "render_recommendations",
    "write_artifacts",
]


def __getattr__(name):
    # The campaign re-exports are lazy so `python -m repro.meta.campaign`
    # does not import the module twice (once via this package, once as
    # __main__ — runpy warns about exactly that).
    if name in ("run_meta_campaign", "render_recommendations", "write_artifacts"):
        import repro.meta.campaign as _campaign

        return getattr(_campaign, name)
    raise AttributeError(f"module 'repro.meta' has no attribute {name!r}")
