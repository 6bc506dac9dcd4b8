"""Behaviour lock for the command line: every bundled fixture is run through a
fixed set of commands in-process, once with ``--format json`` and once with
``--format table``, and each output is compared by sha256 digest with
`tests/data/cli_digests.json`.

A digest covers the exit status, stdout and stderr.  The timestamp line is
dropped and the fixture directory is written as ``fixtures/``, so the digests
do not depend on the clock or on where the repository sits.  To record new
digests after an intended change of behaviour, run this file as a script:
``PYTHONPATH=src python tests/test_cli_snapshot.py``.
"""

import contextlib
import hashlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

from flowmech import parse_network
from flowmech.cli import main

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "fixtures"
DIGESTS = Path(__file__).resolve().parent / "data" / "cli_digests.json"
TIMESTAMP = re.compile(r'^\s*"timestamp": "[^"]*",\n', re.MULTILINE)


def commands(path: Path, fmt: str = "json") -> list[list[str]]:
    net = parse_network(path.read_text(encoding="utf-8"))
    ids = net.edge_ids
    inner = [eid for eid in ids if not net.is_terminal_edge(eid)] or list(ids)
    cmds = [
        ["validate"],
        ["maxflow"],
        ["cuts"],
        ["cuts", "--oracle"],
        ["shapley"],
        ["shapley", "--oracle"],
        ["mc"],
        ["mc", "--no-stand-alone-step"],
        ["core-select"],
        ["core-bounds"],
        ["core-check", "--mechanism", "mc"],
        ["audit", "all", "--mechanism", "shapley"],
        ["audit", "all", "--mechanism", "mc"],
        ["audit", "all", "--mechanism", "core-select"],
        ["classify-pair", "--pair", f"{ids[0]},{ids[-1]}", "--samples", "4", "--seed", "3"],
        ["sweep-theorem2", "--pair", f"{inner[0]},{inner[-1]}"],
    ]
    return [[*cmd, "--format", fmt, str(path)] for cmd in cmds]


def digest(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    text = f"exit {code}\n{out.getvalue()}\n--\n{err.getvalue()}"
    text = TIMESTAMP.sub("", text).replace(f"{FIXTURES}/", "fixtures/")
    return hashlib.sha256(text.encode()).hexdigest()


def key(argv: list[str]) -> str:
    """The fixture's name and the command; a table command keeps its
    ``--format table``, a JSON one drops ``--format json``."""
    words = argv[:-3] if argv[-2] == "json" else argv[:-1]
    return " ".join([Path(argv[-1]).name, *words])


def fixture_digests(path: Path, fmt: str) -> dict[str, str]:
    return {key(argv): digest(argv) for argv in commands(path, fmt)}


FIXTURE_PATHS = sorted(FIXTURES.glob("*.net"))


def assert_unchanged(path: Path, fmt: str) -> None:
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    got = fixture_digests(path, fmt)
    wanted = {
        k: v for k, v in expected.items()
        if k.split(" ", 1)[0] == path.name and k.endswith("--format table") == (fmt == "table")
    }
    assert sorted(got) == sorted(wanted)
    changed = [k for k in got if got[k] != wanted[k]]
    assert not changed, f"{fmt} output changed: {changed}"


@pytest.mark.parametrize("path", FIXTURE_PATHS, ids=lambda p: p.stem)
def test_cli_documents_unchanged(path):
    assert_unchanged(path, "json")


@pytest.mark.parametrize("path", FIXTURE_PATHS, ids=lambda p: p.stem)
def test_cli_tables_unchanged(path):
    assert_unchanged(path, "table")


def results(argv: list[str]) -> tuple[int, dict, str]:
    """Exit status, the run document's results without the input digest,
    and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    doc = json.loads(out.getvalue()) if out.getvalue() else {"results": {}}
    doc["results"].pop("input_digest", None)
    return code, doc["results"], err.getvalue()


@pytest.mark.parametrize("path", FIXTURE_PATHS, ids=lambda p: p.stem)
def test_json_encoding_gives_the_same_results(path, tmp_path):
    """The digests pin the line format; the JSON encoding of each fixture
    must parse to the same network and give the same results."""
    net = parse_network(path.read_text(encoding="utf-8"))
    doc = {
        "nodes": list(net.nodes),
        "edges": [{"id": e.id, "from": e.tail, "to": e.head, "cap": str(e.cap)} for e in net.edges],
        "source": net.source,
        "sink": net.sink,
    }
    encoded = tmp_path / f"{path.stem}.json"
    encoded.write_text(json.dumps(doc), encoding="utf-8")
    assert parse_network(encoded.read_text(encoding="utf-8")) == net
    for argv in commands(path):
        assert results([*argv[:-1], str(encoded)]) == results(argv), argv


if __name__ == "__main__":
    table: dict[str, str] = {}
    for fixture in FIXTURE_PATHS:
        for fmt in ("json", "table"):
            table.update(fixture_digests(fixture, fmt))
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(table)} digests to {DIGESTS}", file=sys.stderr)
