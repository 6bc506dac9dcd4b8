"""The scripts under `scripts/` run to the end, each in its own interpreter."""

import hashlib
import json
import os
import platform
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
    done = _run(script, *args)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == last_line


#: The full report of the first 20 corpus seeds: a change to an audit or to
#: `random_network` that moves a tally or the graph mix shows up here.
CORPUS_20 = """\
mechanism  property verdict    count
mc         cm       pass       58
mc         dsic     pass       20
mc         mp       pass       26
mc         sir      pass       20
mc         sp       pass       58
shapley    dsic     pass       20
shapley    sir      pass       20

internal nodes graphs
0              10
1              9
2              1

no violations across 20 seeds
"""


def test_audit_corpus_output_pinned():
    done = _run("run_audit_corpus.py", "--seeds", "20")
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout == CORPUS_20


#: The sha256 of the full report of the first 150 corpus seeds, whose
#: Shapley dsic audits read every candidate from the player's sweep.
CORPUS_150_SHA256 = "ab8f0582ddcabd380f7a930444c449c283d858b7f022f251522949d276025087"


def test_audit_corpus_150_output_pinned():
    done = _run("run_audit_corpus.py", "--seeds", "150")
    assert done.returncode == 0, done.stdout + done.stderr
    assert hashlib.sha256(done.stdout.encode()).hexdigest() == CORPUS_150_SHA256, done.stdout


def test_code_lines_sum_to_the_total():
    done = _run("code_lines.py")
    assert done.returncode == 0, done.stdout + done.stderr
    rows = [line.split() for line in done.stdout.splitlines()]
    *modules, (total_label, total) = rows
    assert total_label == "total"
    assert [name for name, _ in modules] == sorted(p.stem for p in (ROOT / "src" / "flowmech").glob("*.py"))
    assert all(int(count) > 0 for _, count in modules)
    assert sum(int(count) for _, count in modules) == int(total)


#: One cold `pair-probe` round at seed 1: the relation probes read their
#: 120 Shapley points from 20 sweeps, one per sampled configuration, so no
#: Shapley call runs; the sweeps' base tables and the tables with the swept
#: edge at the proxy B fill 163 coalition values, of which the table bounds
#: leave 65 to a max flow; the four-corner classifications run the other
#: 480 max flows, 120 from zero flow and 360 continued from a neighbouring
#: corner's flow.
PAIR_PROBE_COUNTS = """\
workload pair-probe, seed 1: 102 operations, one cold round
_augment                     545
_augment warm-started        360
_compute                     163
mechanism shapley              0
mechanism mc                   0
mechanism core-select          0
mc sweep points                0
shapley sweep points         120
core-select sweep points       0
"""


def test_count_work_pins_a_pair_probe_round():
    done = _run("count_work.py", "--workload", "pair-probe", "--seed", "1")
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout == PAIR_PROBE_COUNTS


#: One cold `audit-deep` round at seed 1.  The mc dsic, sp, mp and cm
#: audits evaluate mc through one-report sweeps, each a view of its
#: profile's step-two cut family: 788 sweep points (every dsic candidate,
#: the truthful report included, the 4 default split points of each of the
#: 63 edges, the 4 merges and every judged cm point) take the place of 729
#: mechanism calls.  The 85 calls left are the allocate and sir operations
#: (8) and the base profile of each sp and mp audit and of the 10 cm audits
#: that judge a point (63 + 4 + 10); the other 53 cm audits judge none and
#: allocate nothing.  The mc dsic and cm audits read every corner flow off
#: the cut family, so no mc operation runs a max flow (252 corner flows
#: when each ran two).  The core-select audits do the same on 2 of the
#: DAGs: 184 sweep points, a split counted once though the sweep reads it
#: as its payoff at the sum, take the place of 178 calls, and the 43 left are
#: the allocate and sir operations (4) and the base profile of each dsic,
#: sp and mp audit and of the 5 cm audits that judge a point (2 + 30 + 2 +
#: 5).  A core-select sweep reads every nearest cut besides the base
#: report's off its profile's two corner flows of the edge, and runs no max
#: flow of its own, so the core-select operations run the 115 max flows of
#: the round (120 with one nearest cut per regime of the report, 318 with
#: one call per point).  Of these, 36 are an edge's F(B) corner, each
#: continued from the F(0) flow of its edge.
AUDIT_DEEP_COUNTS = """\
workload audit-deep, seed 1: 210 operations, one cold round
_augment                     115
_augment warm-started         36
_compute                       0
mechanism shapley              0
mechanism mc                  85
mechanism core-select         43
mc sweep points              788
shapley sweep points           0
core-select sweep points     184
"""


def test_count_work_pins_an_audit_deep_round():
    done = _run("count_work.py", "--workload", "audit-deep", "--seed", "1")
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout == AUDIT_DEEP_COUNTS


#: One cold `cli-fixtures` round at seed 1: the in-process CLI with JSON
#: output over the fixtures.  Each audit run's deviation search and cm
#: sweeps read an edge's corner flows F(0) and F(B) from one base profile,
#: so they run once per edge that is not direct (1,442 max flows when each
#: check ran its own), and for mc not at all: they are read off the
#: profile's cut family (702 max flows when mc ran them too).  The
#: core-select audits read 526 points from one-report sweeps that take
#: every nearest cut but the base's off the edge's two corner flows (601
#: max flows when each sweep ran one nearest cut per regime), so
#: core-select is called only for the 12 allocations and the 12 audit
#: runs' base profiles; with one call per point the round made 513 calls
#: and 1,168 max flows.  The 100 F(B) corners of the Shapley and
#: core-select runs each continue from their edge's F(0) flow.
CLI_FIXTURES_COUNTS = """\
workload cli-fixtures, seed 1: 135 operations, one cold round
_augment                     578
_augment warm-started        100
_compute                    1385
mechanism shapley             25
mechanism mc                  36
mechanism core-select         24
mc sweep points              610
shapley sweep points         581
core-select sweep points     526
"""


def test_count_work_pins_a_cli_fixtures_round():
    done = _run("count_work.py", "--workload", "cli-fixtures", "--seed", "1")
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout == CLI_FIXTURES_COUNTS


def test_bench_writes_one_file_of_runs(tmp_path):
    """`bench.py` runs each asked workload through `perfbench/run.py` and
    writes its result with the commit, CPU count, Python version, seed and
    seconds."""
    out = tmp_path / "bench.json"
    done = _run("bench.py", "--workload", "pair-probe", "--seed", "2", "--seconds", "0.1", "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    doc = json.loads(out.read_text())
    assert set(doc) == {"commit", "cpus", "python", "seed", "seconds", "workloads"}
    assert (doc["seed"], doc["seconds"], doc["cpus"]) == (2, 0.1, os.cpu_count())
    assert doc["python"] == platform.python_version()
    assert list(doc["workloads"]) == ["pair-probe"]
    run = doc["workloads"]["pair-probe"]
    assert run["correct"] is True and run["attempted"] > 0
    assert {"setup_s", "items_per_s", "item_p50_ms", "item_p90_ms", "peak_rss_mib"} <= set(run["metrics"])


def _run(script, *args):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=300,
    )
