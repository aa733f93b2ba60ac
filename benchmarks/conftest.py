"""Shared benchmark plumbing.

Every benchmark regenerates one of the paper's tables or figures and
saves the rendered artefact under ``benchmarks/results/`` so the output
can be inspected after the run (pytest captures stdout by default).
"""

from __future__ import annotations

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def registry_dir(results_dir) -> Path:
    """Journal directory for the resumable figure/table grids.

    Every grid benchmark passes ``registry_path`` into this directory,
    so a killed or crashed benchmark run resumes instead of restarting:
    completed cells are merged back from the journal bit-identically.
    Set ``REPRO_RESUME=0`` to force a cold re-run (e.g. when timing),
    or delete the directory.  The journals are gitignored.
    """
    path = results_dir / "registry"
    path.mkdir(exist_ok=True)
    return path


@pytest.fixture
def save_artifact(results_dir):
    """save_artifact(name, text): persist a rendered table/figure.

    Written atomically (tmp + fsync + rename), so a run killed
    mid-write leaves either the previous artefact or the new one —
    never a truncated table."""

    def _save(name: str, text: str) -> Path:
        from repro.exec.journal import atomic_write

        path = results_dir / f"{name}.txt"
        atomic_write(path, (text + "\n").encode("utf-8"))
        return path

    return _save
