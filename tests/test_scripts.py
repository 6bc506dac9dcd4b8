"""The scripts under `scripts/` run to the end, each in its own interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args, last_line",
    [
        ("reproduce_worked_examples.py", [], "all values reproduced"),
        ("run_audit_corpus.py", ["--seeds", "20"], "no violations across 20 seeds"),
    ],
)
def test_script_runs_to_its_last_line(script, args, last_line):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == last_line
