"""Every script of ``make examples`` runs to completion.

The scripts are read from the Makefile's ``examples`` target, so a new
example is covered once it is listed there.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _example_scripts() -> list[str]:
    makefile = (ROOT / "Makefile").read_text()
    target = re.search(r"^examples:\n((?:\t.*\n)+)", makefile, re.MULTILINE)
    assert target, "Makefile has no examples target"
    return re.findall(r"\$\(PYTHON\) (examples/\S+\.py)", target.group(1))


def test_the_examples_target_lists_scripts():
    scripts = _example_scripts()
    assert "examples/compiler_flag_tuning.py" in scripts
    assert all((ROOT / s).is_file() for s in scripts)


@pytest.mark.slow
@pytest.mark.parametrize("script", _example_scripts())
def test_example_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    done = subprocess.run(
        [sys.executable, script], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip()
