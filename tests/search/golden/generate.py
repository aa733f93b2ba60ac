"""Regenerate the golden fixtures.

Usage (from the repo root, on a commit whose search implementations are
known-good — see tests/search/golden_scenarios.py):

    PYTHONPATH=src:tests/search python tests/search/golden/generate.py

Writes ``traces.json`` (every scenario's trace), ``checkpoints.json``
(the SHA-256 digest of the checkpoint file each digested scenario leaves
when it is killed at its third periodic save) and ``sessions.json``
(the trace digests of one small transfer session per problem).
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))  # tests/search, for golden_scenarios

from golden_scenarios import (  # noqa: E402
    CHECKPOINT_DIGESTED,
    PROBLEMS,
    SCENARIOS,
    killed_checkpoint_digest,
    session_digests,
)

from repro.reliability.checkpoint import trace_to_dict  # noqa: E402


def _write(name: str, payload: dict) -> None:
    path = os.path.join(HERE, name)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
    print(f"wrote {path} ({len(payload)} entries)")


def main() -> None:
    fixtures = {}
    for name, scenario in SCENARIOS.items():
        trace = scenario()
        fixtures[name] = trace_to_dict(trace)
        print(f"{name}: {trace}")
    _write("traces.json", fixtures)
    with tempfile.TemporaryDirectory() as tmp:
        digests = {
            name: killed_checkpoint_digest(name, tmp)
            for name in CHECKPOINT_DIGESTED
        }
    _write("checkpoints.json", digests)
    _write("sessions.json", {p: session_digests(p) for p in PROBLEMS})


if __name__ == "__main__":
    main()
