#!/usr/bin/env python3
"""Run the benchmark's workloads and write their results to one JSON file.

    python3 scripts/bench.py --out bench.json
    python3 scripts/bench.py --workload audit-deep --seconds 2 --out audit-deep.json

Each workload runs as ``perfbench/run.py --workload W --seed S --seconds T
--trace 0`` in an interpreter of its own, one after another, and the last
line it prints is kept: its result, ``{"correct", "attempted", "failed",
"metrics"}``.  The file holds those results by workload, with the commit
they ran at (``git describe --always --dirty``, so a tree with changes
says so), the CPU count, the Python version, the seed and the seconds.
The repository keeps one such file per change, `BENCH_<n>.json`.  The
script exits 1 when a run exits with an error.  Standard library only;
``perfbench/run.py`` needs networkx and scipy for its output checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("audit-deep", "core-shapley", "pair-probe", "cli-fixtures")


def commit() -> str | None:
    """The checkout's commit, marked ``-dirty`` when tracked files changed;
    None outside a git checkout."""
    try:
        done = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def run_workload(workload: str, seed: int, seconds: float) -> tuple[int, dict]:
    """One untraced run of a workload: its exit status and its last line."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"error": done.stderr.strip().splitlines()[-1:] or ["no output"]}
    return done.returncode, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, action="append", help="one workload (repeatable); default all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--out", required=True, help="the JSON file to write")
    args = parser.parse_args()
    results, failed = {}, []
    for workload in args.workload or WORKLOADS:
        status, results[workload] = run_workload(workload, args.seed, args.seconds)
        if status:
            failed.append(workload)
    doc = {
        "commit": commit(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "seed": args.seed,
        "seconds": args.seconds,
        "workloads": results,
    }
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    if failed:
        print(f"error: runs exited with an error: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
