"""The meta-tuning campaign: recommended specs per (kernel, pair).

One campaign cell scores one candidate :class:`~repro.spec.TunerSpec`
on one (problem, machine-pair, seed) — a full inner tuning session via
:func:`repro.experiments.harness.evaluate_spec`.  Cells run through the
sweep driver :func:`repro.experiments.harness.score_specs`, so a
campaign pointed at a ``--registry`` journals every completed cell and
a killed invocation resumes with **zero re-executed cells** (``make
meta-smoke`` proves this with a SIGKILL).

Candidate specs are the default spec plus a deterministic sample of
the meta-space (:func:`repro.meta.space.meta_space`); the default is
always candidate ``"default"``, so every recommendation reports its
improvement over the status quo.  The winner per (problem, pair) is
the candidate with the highest mean objective across seeds.

Artifacts (``make meta``)::

    benchmarks/results/meta_recommendations.json   # machine-readable
    benchmarks/results/meta_recommendations.txt    # human table

Run directly::

    python -m repro.meta.campaign --seeds 2 --candidates 4 \\
        --registry benchmarks/results/registry/meta.jsonl
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.errors import SpecError
from repro.experiments.harness import SWEEP_VARIANTS, score_specs
from repro.meta.space import meta_space, spec_at
from repro.spec import TunerSpec, resolve_spec
from repro.utils.rng import spawn_rng

__all__ = [
    "DEFAULT_PAIRS",
    "candidate_specs",
    "run_meta_campaign",
    "render_recommendations",
    "write_artifacts",
    "main",
]

#: both transfer directions of the paper's two Intel machines.
DEFAULT_PAIRS: tuple[tuple[str, str], ...] = (
    ("westmere", "sandybridge"),
    ("sandybridge", "westmere"),
)


def candidate_specs(
    n_candidates: int,
    axes=None,
    base: TunerSpec | None = None,
) -> list[tuple[str, TunerSpec]]:
    """``[("default", base), ("c1-<fp>", spec1), ...]``, deterministically.

    Candidates are sampled without replacement from the meta-space over
    ``axes`` with an RNG keyed by the space — re-invocations of the same
    campaign produce the same candidates, which is what lets their grid
    cells resume from the journal.
    """
    if n_candidates < 0:
        raise SpecError(f"n_candidates must be >= 0, got {n_candidates}")
    base = resolve_spec(base)
    out: list[tuple[str, TunerSpec]] = [("default", base)]
    if n_candidates == 0:
        return out
    space = meta_space(axes)
    # Another key draws other candidates, and so other journaled cells.
    rng = spawn_rng("meta-campaign", "meta-campaign", space.name)
    n = min(n_candidates, space.cardinality - 1)
    # exclude nothing explicitly: a sampled point may equal the default
    # spec on the chosen axes, and that collision is itself informative.
    for i, config in enumerate(space.sample(rng, n), start=1):
        spec = spec_at(config, base=base)
        out.append((f"c{i}-{spec.fingerprint()}", spec))
    return out


def run_meta_campaign(
    problems=("MM",),
    pairs=DEFAULT_PAIRS,
    seeds=(0, 1),
    n_candidates: int = 4,
    axes=None,
    nmax: int = 30,
    variants=SWEEP_VARIANTS,
    registry_path=None,
    n_workers: int | None = 1,
) -> dict:
    """Score every candidate on every (problem, pair, seed); recommend.

    Returns a JSON-safe summary: the candidate table, every cell
    result, and one recommendation per (problem, pair) — the candidate
    with the best mean objective across seeds, with its improvement
    over the default spec.  With ``registry_path`` the grid journals
    through the run registry and resumes after a kill with zero
    re-executed cells.
    """
    candidates = candidate_specs(n_candidates, axes=axes)
    results = score_specs(
        "meta-campaign", candidates, problems, pairs, seeds, nmax,
        variants=variants, registry_path=registry_path, n_workers=n_workers,
    )

    by_group: dict[tuple[str, str, str], dict[str, list[dict]]] = {}
    for res in results:
        group = (res["problem"], res["source"], res["target"])
        by_group.setdefault(group, {}).setdefault(res["candidate"], []).append(res)

    specs_by_label = {label: spec for label, spec in candidates}
    recommendations = []
    for (problem, source, target), per_candidate in sorted(by_group.items()):
        scored = {
            label: sum(r["objective"] for r in rs) / len(rs)
            for label, rs in per_candidate.items()
            if all(r["objective"] == r["objective"] for r in rs)  # no NaN
        }
        if not scored:
            continue
        winner = max(scored, key=lambda label: (scored[label], label == "default"))
        default_mean = scored.get("default", float("nan"))
        recommendations.append({
            "problem": problem,
            "source": source,
            "target": target,
            "candidate": winner,
            "spec": specs_by_label[winner].to_dict(),
            "fingerprint": specs_by_label[winner].fingerprint(),
            "objective": scored[winner],
            "default_objective": default_mean,
            "improvement": (
                scored[winner] / default_mean
                if default_mean == default_mean and default_mean > 0
                else float("nan")
            ),
            "n_seeds": len(per_candidate[winner]),
        })
    return {
        "experiment": "meta-campaign",
        "candidates": [
            {"candidate": label, "spec": spec.to_dict(),
             "fingerprint": spec.fingerprint()}
            for label, spec in candidates
        ],
        "n_cells": len(results),
        "recommendations": recommendations,
        "results": results,
    }


def render_recommendations(summary: dict) -> str:
    """Human-readable recommendation table (the txt artifact)."""
    lines = [
        "meta-tuning recommendations "
        f"({len(summary['candidates'])} candidates, "
        f"{summary['n_cells']} cells)",
        "",
        f"{'problem':<8} {'pair':<26} {'candidate':<22} "
        f"{'objective':>9} {'default':>9} {'improve':>8}",
    ]
    for rec in summary["recommendations"]:
        pair = f"{rec['source']}->{rec['target']}"
        lines.append(
            f"{rec['problem']:<8} {pair:<26} {rec['candidate']:<22} "
            f"{rec['objective']:>9.3f} {rec['default_objective']:>9.3f} "
            f"{rec['improvement']:>7.2f}x"
        )
        changed = _spec_delta(rec["spec"])
        lines.append(f"         tuned knobs: {changed or '(default spec)'}")
    return "\n".join(lines) + "\n"


def _spec_delta(wire: dict) -> str:
    """``"gate.delta_percent=35.0, pool.size=2000"`` vs the default spec."""
    default = resolve_spec(None).to_dict()
    diffs = []

    def walk(prefix, a, b):
        for key in sorted(b):
            path = f"{prefix}{key}" if not prefix else f"{prefix}.{key}"
            if isinstance(b[key], dict) and isinstance(a.get(key), dict):
                walk(path, a[key], b[key])
            elif a.get(key) != b[key]:
                diffs.append(f"{path}={b[key]}")

    walk("", default, wire)
    return ", ".join(d for d in diffs if not d.startswith("version="))


def write_artifacts(summary: dict, out_dir="benchmarks/results") -> list[str]:
    """Write the json + txt recommendation artifacts crash-safely."""
    import os

    from repro.exec.journal import atomic_write

    os.makedirs(out_dir, exist_ok=True)
    json_path = os.path.join(out_dir, "meta_recommendations.json")
    txt_path = os.path.join(out_dir, "meta_recommendations.txt")
    document = json.dumps(summary, sort_keys=True, indent=2) + "\n"
    atomic_write(json_path, document.encode("utf-8"))
    atomic_write(txt_path, render_recommendations(summary).encode("utf-8"))
    return [json_path, txt_path]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Meta-tune TunerSpec knobs over (kernel, machine-pair) cells."
    )
    parser.add_argument("--problems", nargs="+", default=["MM"],
                        help="kernel problems to tune (default: MM)")
    parser.add_argument("--pair", action="append", default=None,
                        metavar="SRC:DST",
                        help="machine pair, repeatable (default: both "
                             "westmere<->sandybridge directions)")
    parser.add_argument("--seeds", type=int, default=2,
                        help="number of session seeds per cell group")
    parser.add_argument("--candidates", type=int, default=4,
                        help="sampled candidate specs beside the default")
    parser.add_argument("--nmax", type=int, default=30,
                        help="inner search evaluations per variant")
    parser.add_argument("--registry", default=None,
                        help="run-registry journal path (enables resume)")
    parser.add_argument("--workers", type=int, default=1,
                        help="parallel campaign cells")
    parser.add_argument("--out", default="benchmarks/results",
                        help="artifact directory ('' to skip writing)")
    args = parser.parse_args(argv)
    pairs = DEFAULT_PAIRS
    if args.pair:
        pairs = tuple(tuple(p.split(":", 1)) for p in args.pair)
    summary = run_meta_campaign(
        problems=tuple(args.problems),
        pairs=pairs,
        seeds=tuple(range(args.seeds)),
        n_candidates=args.candidates,
        nmax=args.nmax,
        registry_path=args.registry,
        n_workers=args.workers,
    )
    if args.out:
        write_artifacts(summary, args.out)
    sys.stdout.write(render_recommendations(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
