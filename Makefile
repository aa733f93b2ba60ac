# Convenience targets for the reproduction.

PYTHON ?= python

.PHONY: install test test-fast test-numpy lint bench perfbench perfbench-trace faults guard chaos chaos-smoke corruption-smoke scrub meta meta-smoke service report examples clean

# Meta-campaign knobs for `make meta` (override on the command line).
META_SEEDS ?= 2
META_CANDIDATES ?= 4
META_NMAX ?= 30

# Chaos knob for `make chaos` (override on the command line).
CHAOS_PLANS ?= 13

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

test-fast:
	$(PYTHON) -m pytest tests/ -x -q -m "not slow"

# Tier-1 with the compiled kernels switched off: the whole suite, golden
# traces and checkpoint digests included, against the NumPy paths.  The
# one end-to-end comparison of the two programs (perfbench refuses the
# fallback).
test-numpy:
	REPRO_NATIVE=0 $(PYTHON) -m pytest tests/

# Import-graph discipline (no runtime cycles, no TYPE_CHECKING-hidden
# internal imports) and a dead-code sweep over the whole repro package:
# modules, top-level definitions and public class members that only
# tests use.
lint:
	$(PYTHON) -m repro.devtools.lint

# Regenerate every table, figure and ablation artefact under
# benchmarks/results/.  Speed is measured by `make perfbench`.
bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# The repository benchmark (perfbench/README.md): every workload end to
# end, then the same run with per-layer spans.  It is also the
# regression gate: compare a change against its parent with runs
# interleaved on the same host.
perfbench:
	python3 perfbench/run.py --workload all --seed 1 --seconds 15

perfbench-trace:
	python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1

faults:
	$(PYTHON) -m pytest -x -q benchmarks/test_ablations.py::test_fault_ablation --benchmark-only

# Negative-transfer guardrails: adversarial sources x guard on/off,
# written to benchmarks/results/ablation_guard.txt (journaled grid,
# REPRO_RESUME applies).
guard:
	$(PYTHON) -m pytest -x -q benchmarks/test_ablations.py::test_negative_transfer --benchmark-only

# Full chaos gauntlet: (1) a seeded cross-layer chaos campaign —
# CHAOS_PLANS seeds x two intensities, each cell running
# search+grid+service under composed evaluator/worker/filesystem/deadline
# faults and verified against the crash-consistency oracle — then (2)
# the tier-1 suite, whose executor recovery tests include heavy worker
# kill-and-hang pressure, to prove the chaos run left nothing broken
# behind.
chaos:
	$(PYTHON) -m repro.chaos.campaign --seeds $(CHAOS_PLANS)
	$(PYTHON) -m pytest -x -q tests/

# Bounded (<60s asserted in-test) chaos smoke: two full oracle cells
# mixing all five fault layers — the tier-1-friendly slice of `make
# chaos`.
chaos-smoke:
	$(PYTHON) -m pytest -x -q tests/chaos/test_smoke.py

# Bounded bit-rot smoke: oracle cells whose plans are checked to cover
# bit-flip, mid-file truncate, and flip-during-compaction against the
# registry/store/checkpoints — the tier-1-friendly slice of the
# silent-corruption layer.
corruption-smoke:
	$(PYTHON) -m pytest -x -q tests/chaos/test_corruption_smoke.py

# Offline integrity pass: verify CRC32 framing of every journal under
# benchmarks/results/ (and the meta campaign registry), quarantining
# damaged records to .quarantine sidecars and reporting salvage
# provenance.  `--check` would report without rewriting.
scrub:
	$(PYTHON) -m repro.exec.scrub benchmarks/results

# The self-meta-tuning campaign: search TunerSpec knobs over
# (kernel, machine-pair) cells through the journaled grid and write the
# recommendation artifacts (benchmarks/results/meta_recommendations.*).
# Journaled under benchmarks/results/registry/, so a killed campaign
# resumes with zero re-executed cells (REPRO_RESUME applies).
meta:
	$(PYTHON) -m repro.meta.campaign --seeds $(META_SEEDS) \
		--candidates $(META_CANDIDATES) --nmax $(META_NMAX) \
		--registry benchmarks/results/registry/meta.jsonl

# Bounded meta-tuning smoke: a tiny meta-grid run as a subprocess,
# SIGKILLed mid-campaign, and resumed with zero re-executed cells —
# the tier-1-friendly slice of `make meta`.
meta-smoke:
	$(PYTHON) -m pytest -x -q tests/meta/test_smoke.py

# The tuning-service robustness suite: the bounded multi-tenant load
# contract plus the SIGKILL/recovery and fault-injection chaos tests.
# Service latency and throughput are the perfbench service_mix workload.
service:
	$(PYTHON) -m pytest -x -q tests/service

report:
	$(PYTHON) -m repro report --output EXPERIMENTS.generated.md

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/codegen_tour.py
	$(PYTHON) examples/cross_architecture_study.py
	$(PYTHON) examples/compiler_flag_tuning.py
	$(PYTHON) examples/beyond_the_paper.py

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
