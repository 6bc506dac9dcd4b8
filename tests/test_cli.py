import json
import time

import pytest

from flowmech import fixture_names, fixture_text, load_fixture, parse_network
from flowmech.cli import build_parser, main
from conftest import BAD_JSON_NETWORKS


@pytest.fixture()
def fig_dir(tmp_path):
    from flowmech import write_fixtures

    write_fixtures(str(tmp_path))
    return tmp_path


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_mc_chain_table(capsys, fig_dir):
    code, out = run_cli(capsys, "mc", str(fig_dir / "fig5.net"))
    assert code == 0
    assert "e1    1       1/2" in out
    assert "e3    1       1" in out
    assert "total: 2" in out


def test_maxflow_with_report_override(capsys, fig_dir):
    code, out = run_cli(capsys, "maxflow", str(fig_dir / "fig1.net"), "--report", "e1=1")
    assert code == 0
    assert "max-flow value: 2" in out


def test_audit_sp_violation_exits_two(capsys, fig_dir):
    code, out = run_cli(
        capsys, "audit", "sp", str(fig_dir / "fig2a.net"), "--mechanism", "shapley", "--edge", "e1"
    )
    assert code == 2
    assert "VIOLATION" in out


@pytest.mark.parametrize("mechanism", ["mc", "shapley", "core-select"])
def test_audit_sp_of_an_edge_reported_at_zero_is_not_tested(capsys, fig_dir, mechanism):
    code, out = run_cli(
        capsys, "audit", "sp", str(fig_dir / "fig1.net"), "--mechanism", mechanism,
        "--report", "e1=0", "--edge", "e1",
    )
    assert code == 0
    assert "NOT-TESTED" in out and "PASS" not in out
    assert "'edge': 'e1'" in out


def test_audit_pass_exits_zero(capsys, fig_dir):
    code, out = run_cli(
        capsys, "audit", "all", str(fig_dir / "fig5.net"), "--mechanism", "mc"
    )
    assert code == 0
    assert "VIOLATION" not in out


def test_over_report_rejected(capsys, fig_dir):
    code = main(["maxflow", str(fig_dir / "fig1.net"), "--report", "e2=7"])
    assert code == 1
    assert capsys.readouterr().err == "error: report for e2 must lie in [0, 1], got 7\n"
    # two over-reports: the first in edge order is named, in either option order
    for first, second in [("e1=3", "e2=7"), ("e2=7", "e1=3")]:
        assert main(["maxflow", str(fig_dir / "fig1.net"), "--report", first, "--report", second]) == 1
        assert capsys.readouterr().err == "error: report for e1 must lie in [0, 2], got 3\n"


def test_unknown_edge_rejected(capsys, fig_dir):
    assert main(["maxflow", str(fig_dir / "fig1.net"), "--report", "zz=1"]) == 1
    assert capsys.readouterr().err == "error: unknown edge id 'zz' in reports\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["maxflow", "fig1.net", "--report", "e1=1", "--report", "e1=2"],
        ["core-check", "fig1.net", "--payoff", "e1=5", "--payoff", "e1=0", "--payoff", "e2=0",
         "--payoff", "e3=1", "--payoff", "e4=1"],
    ],
    ids=["report", "payoff"],
)
def test_repeated_override_rejected(capsys, fig_dir, argv):
    option = argv[2]
    assert main([argv[0], str(fig_dir / argv[1]), *argv[2:]]) == 1
    assert capsys.readouterr().err == f"error: {option} for e1 given more than once\n"


def _one_edge_json(cap: str) -> str:
    return '{"edges": [{"id": "e1", "from": "s", "to": "t", "cap": %s}]}' % cap


@pytest.mark.parametrize(
    "command, text, options",
    [
        ("maxflow", "edge e1 s t 1e100000\n", []),
        ("maxflow", _one_edge_json("1e100000"), []),
        ("maxflow", _one_edge_json('"1e100000"'), []),
        ("maxflow", _one_edge_json("7" * 5000), []),
        ("maxflow", "edge e1 s t 1\n", ["--report", "e1=1e100000"]),
        ("core-check", "edge e1 s t 1\n", ["--payoff", "e1=1e-100000"]),
    ],
    ids=["line", "json-number", "json-string", "json-int", "report", "payoff"],
)
def test_oversized_numbers_fail_fast_with_one_line(capsys, tmp_path, command, text, options):
    """A number whose numerator or denominator has more than 4300 digits
    could not be printed; it is refused where it is read, before its power
    of ten is built."""
    path = tmp_path / "big.net"
    path.write_text(text)
    start = time.perf_counter()
    assert main([command, str(path), *options]) == 1
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "has more than 4300 digits in its numerator or denominator" in err


@pytest.mark.parametrize(
    "argv",
    [["maxflow"], ["maxflow", "--format", "json"], ["mc"], ["mc", "--format", "json"]],
    ids=["maxflow", "maxflow-json", "mc", "mc-json"],
)
def test_results_too_long_to_print_fail_with_one_line(capsys, tmp_path, argv):
    """Each capacity is accepted, but their sum has a denominator of about
    6,000 digits, which str() refuses: the command prints nothing on
    standard output and one error line."""
    path = tmp_path / "long.net"
    path.write_text(f"edge e1 s t 1/{'9' * 3000}\nedge e2 s t 1/{'9' * 2999}7\n")
    assert main([argv[0], str(path), *argv[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: a result has more than 4300 digits in its numerator or denominator\n"


def test_deviate_unknown_player_rejected(capsys, fig_dir):
    code = main(["deviate", str(fig_dir / "fig1.net"), "--player", "zz", "--mechanism", "mc"])
    assert code == 1
    assert capsys.readouterr().err == "error: unknown edge id 'zz'\n"


def test_core_bounds_of_one_edge_is_its_row_of_the_full_table(capsys, fig_dir):
    path = str(fig_dir / "fig1.net")
    _, one = run_cli(capsys, "core-bounds", path, "--edge", "e3", "--format", "json")
    _, full = run_cli(capsys, "core-bounds", path, "--format", "json")
    bounds = json.loads(one)["results"]["bounds"]
    assert bounds == {"e3": ["1", "1"]}
    assert bounds["e3"] == json.loads(full)["results"]["bounds"]["e3"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["core-bounds", "fig1.net", "--edge", "zz"], "unknown edge id 'zz'"),
        (["maxflow", "fig1.net", "--report", "e1"], "--report expects EDGE=VALUE, got 'e1'"),
        (["classify-pair", "fig1.net", "--pair", "e1"], "--pair expects two comma-separated edge ids, e.g. e1,e3"),
        (["validate", "bad.net"], "line 1: unknown directive 'edg'"),
    ],
    ids=["core-bounds-unknown-edge", "report-without-value", "pair-of-one", "validate-bad-directive"],
)
def test_bad_option_or_network_exits_one(capsys, fig_dir, argv, message):
    (fig_dir / "bad.net").write_text("edg e1 s t 1\n")
    assert main([argv[0], str(fig_dir / argv[1]), *argv[2:]]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "prop, option, message",
    [
        ("dsic", ["--edge", "e1"], "--edge applies to sp and cm only"),
        ("all", ["--edge", "e1"], "--edge applies to sp and cm only"),
        ("mp", ["--edge", "e1"], "--edge applies to sp and cm only"),
        ("sp", ["--pair", "e1,e2"], "--pair applies to mp only"),
        ("all", ["--pair", "e1,e2"], "--pair applies to mp only"),
    ],
)
def test_audit_option_out_of_scope_exits_one(capsys, fig_dir, prop, option, message):
    code = main(["audit", prop, str(fig_dir / "fig1.net"), "--mechanism", "mc", *option])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("prop", ["sir", "sp", "mp", "cm"])
def test_audit_grid_out_of_scope_exits_one(capsys, fig_dir, prop):
    code = main(["audit", prop, str(fig_dir / "fig2a.net"), "--mechanism", "shapley", "--grid", "1"])
    assert code == 1
    assert capsys.readouterr().err == "error: --grid applies to dsic and all only\n"


@pytest.mark.parametrize("prop", ["dsic", "all"])
def test_audit_grid_reaches_the_deviation_search(capsys, fig_dir, prop):
    code = main(["audit", prop, str(fig_dir / "fig2a.net"), "--mechanism", "shapley", "--grid", "1"])
    assert code == 1
    assert capsys.readouterr().err == "error: grid_size must be >= 2\n"


class _Reached(Exception):
    pass


@pytest.fixture
def no_library(monkeypatch):
    """Every library call the commands with a count option make, replaced
    by one that raises `_Reached`, so a count that got through fails at
    once instead of running for ever."""
    from flowmech import cli

    def reached(*args, **kwargs):
        raise _Reached

    names = (
        "parse_network", "best_deviation", "audit_all", "check_sp", "check_cm", "check_mp", "cross_effect_sweep",
        "probe_constant_relation",
    )  # fmt: skip
    for name in names:
        monkeypatch.setattr(cli, name, reached)
    for prop in cli.AUDITS:
        monkeypatch.setitem(cli.AUDITS, prop, reached)


@pytest.mark.parametrize(
    "argv, option",
    [
        (["deviate", "fig1.net", "--player", "e1", "--mechanism", "mc", "--grid"], "--grid"),
        (["audit", "dsic", "fig1.net", "--mechanism", "mc", "--grid"], "--grid"),
        (["audit", "all", "fig1.net", "--mechanism", "shapley", "--grid"], "--grid"),
        (["sweep-theorem2", "fig1.net", "--pair", "e1,e3", "--points"], "--points"),
        (["classify-pair", "fig1.net", "--pair", "e1,e3", "--seed", "1", "--samples"], "--samples"),
    ],
    ids=["deviate", "audit-dsic", "audit-all", "sweep", "classify-samples"],
)
def test_an_oversized_count_is_refused_before_any_library_call(capsys, fig_dir, no_library, argv, option):
    """A grid, point or sample count above MAX_POINTS exits 1 with an error
    line and reaches no library call; MAX_POINTS itself gets through."""
    from flowmech.cli import MAX_POINTS

    argv = [str(fig_dir / a) if a == "fig1.net" else a for a in argv]
    for count in (MAX_POINTS + 1, 100_000_000_000):
        assert main([*argv, str(count)]) == 1
        assert capsys.readouterr().err == f"error: {option} must be at most {MAX_POINTS}, got {count}\n"
    with pytest.raises(_Reached):
        main([*argv, str(MAX_POINTS)])


def test_deviate_rejects_a_report_for_the_player(capsys, fig_dir):
    argv = ["deviate", str(fig_dir / "fig1.net"), "--player", "e1", "--mechanism", "mc"]
    assert main([*argv, "--report", "e1=0"]) == 1
    assert capsys.readouterr().err == (
        "error: --report names the deviating player e1; the search sets that report itself\n"
    )
    assert main([*argv, "--report", "e2=1/2"]) == 0


def test_audit_mp_without_parallel_pairs_exits_one(capsys, fig_dir):
    assert main(["audit", "mp", str(fig_dir / "fig5.net"), "--mechanism", "mc"]) == 1
    assert capsys.readouterr().err == "error: the network has no parallel edge pair to merge\n"


@pytest.mark.parametrize("fixture, pair", [("fig5", "e3,e3"), ("fig1", "e1,e1")])
def test_sweep_same_edge_twice_exits_one(capsys, fig_dir, fixture, pair):
    assert main(["sweep-theorem2", str(fig_dir / f"{fixture}.net"), "--pair", pair]) == 1
    assert capsys.readouterr().err == "error: the two edges must differ\n"


@pytest.mark.parametrize(
    "prop, option, message",
    [
        ("sp", ["--edge", "zz"], "unknown edge id 'zz'"),
        ("cm", ["--edge", "zz"], "unknown edge id 'zz'"),
        ("mp", ["--pair", "e1,zz"], "unknown edge id 'zz'"),
        ("mp", ["--pair", "zz,e1"], "unknown edge id 'zz'"),
        ("mp", ["--pair", "e1,e1"], "the two edges must differ"),
    ],
)
def test_audit_with_a_bad_edge_exits_one(capsys, fig_dir, prop, option, message):
    code = main(["audit", prop, str(fig_dir / "fig1.net"), "--mechanism", "mc", *option])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["mc", "shapley", "cuts"])
@pytest.mark.parametrize("doc, field", BAD_JSON_NETWORKS)
def test_json_of_wrong_types_exits_one(capsys, tmp_path, doc, field, command):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main([command, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err


@pytest.mark.parametrize("command", ["validate", "maxflow"])
def test_unreadable_network_file_exits_one_with_the_reason(capsys, tmp_path, command):
    missing, binary = tmp_path / "no-such.net", tmp_path / "binary.net"
    binary.write_bytes(b"edge e s t \xff\n")
    for path, reason in (
        (missing, "No such file or directory"),
        (tmp_path, "Is a directory"),
        (binary, "not UTF-8 text"),
    ):
        assert main([command, str(path)]) == 1
        assert capsys.readouterr().err == f"error: cannot read {path}: {reason}\n"


def test_fixtures_out_onto_a_file_names_the_file(capsys, tmp_path):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["fixtures", "--out", str(taken)]) == 1
    assert capsys.readouterr().err == f"error: [Errno 17] File exists: '{taken}'\n"


@pytest.mark.parametrize("seed", [[], ["--seed", "1"]], ids=["no-seed", "seed"])
def test_classify_pair_zero_samples_exits_one(capsys, fig_dir, seed):
    code = main(["classify-pair", str(fig_dir / "fig1.net"), "--pair", "e1,e2", "--samples", "0", *seed])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def test_invalid_network_rejected(capsys, tmp_path):
    bad = tmp_path / "bad.net"
    bad.write_text("source s\nsink t\nedge e1 s t 1\nedge e2 a a 1\n")
    assert main(["maxflow", str(bad)]) == 1


def test_the_parser_is_built_once_per_process(capsys, fig_dir):
    """Parsing leaves the parser as it was, so `main` reuses one."""
    parser = build_parser()
    assert run_cli(capsys, "validate", str(fig_dir / "fig1.net"))[0] == 0
    assert run_cli(capsys, "maxflow", str(fig_dir / "fig1.net"), "--report", "e1=1")[0] == 0
    assert build_parser() is parser


def test_json_terminal_outside_the_edges_is_named(capsys, tmp_path):
    """A JSON source that no edge touches is a node, so `validate` and
    `maxflow --prune` name it."""
    path = tmp_path / "stray.json"
    path.write_text(json.dumps({"edges": [{"id": "e1", "from": "a", "to": "b", "cap": 1}], "source": "x"}))
    code, out = run_cli(capsys, "validate", str(path))
    assert code == 1
    assert out.splitlines()[1:] == [
        "  [error] extra-source: node other than the source has in-degree 0 (a)",
        "  [error] isolated-node: node has no incident edges (x)",
        "  [error] off-path-edge: edge lies on no source-sink path (e1)",
    ]
    assert main(["maxflow", "--prune", str(path)]) == 1
    assert capsys.readouterr().err == (
        "error: network failed validation: isolated-node: node has no incident edges (b); "
        "isolated-node: node has no incident edges (x)\n"
    )


def test_validate_prune_recovers(capsys, tmp_path):
    text = "sink t\nedge e1 s A 1\nedge e2 A t 1\nedge e3 A B 1\n"
    path = tmp_path / "dangling.net"
    path.write_text(text)
    code, _out = run_cli(capsys, "validate", str(path))
    assert code == 1
    code, out = run_cli(capsys, "validate", str(path), "--prune")
    assert code == 0
    assert "VALID" in out


def test_json_output_has_no_float_literals(capsys, fig_dir):
    def boom(token):
        raise AssertionError(f"float literal {token!r} in structured output")

    for argv in (
        ["shapley", str(fig_dir / "fig2a.net"), "--format", "json"],
        ["mc", str(fig_dir / "fig5.net"), "--format", "json"],
        ["cuts", str(fig_dir / "fig1.net"), "--format", "json"],
        ["core-bounds", str(fig_dir / "fig9.net"), "--format", "json"],
        ["audit", "cm", str(fig_dir / "fig4.net"), "--mechanism", "mc", "--format", "json"],
        ["sweep-theorem2", str(fig_dir / "fig1.net"), "--pair", "e1,e3", "--format", "json"],
    ):
        code, out = run_cli(capsys, *argv)
        doc = json.loads(out, parse_float=boom)
        assert doc["results"]


def test_json_reruns_identical_except_timestamp(capsys, fig_dir):
    argv = ["shapley", str(fig_dir / "fig3a.net"), "--format", "json"]
    _, first = run_cli(capsys, *argv)
    _, second = run_cli(capsys, *argv)
    a, b = json.loads(first), json.loads(second)
    a.pop("timestamp"), b.pop("timestamp")
    assert a == b


def test_shapley_json_payoffs(capsys, fig_dir):
    code, out = run_cli(capsys, "shapley", str(fig_dir / "fig2a.net"), "--format", "json")
    doc = json.loads(out)
    assert doc["results"]["allocation"]["payoffs"]["e1"] == "1/30"


def test_oracle_flags(capsys, fig_dir):
    _, fast = run_cli(capsys, "shapley", str(fig_dir / "fig3a.net"), "--format", "json")
    _, slow = run_cli(capsys, "shapley", str(fig_dir / "fig3a.net"), "--oracle", "--format", "json")
    assert (
        json.loads(fast)["results"]["allocation"]["payoffs"]
        == json.loads(slow)["results"]["allocation"]["payoffs"]
    )
    _, fast = run_cli(capsys, "cuts", str(fig_dir / "fig1.net"), "--format", "json")
    _, slow = run_cli(capsys, "cuts", str(fig_dir / "fig1.net"), "--oracle", "--format", "json")
    assert json.loads(fast)["results"]["cuts"] == json.loads(slow)["results"]["cuts"]


def test_mc_diagnostic_variant(capsys, fig_dir):
    code, out = run_cli(
        capsys, "mc", str(fig_dir / "fig5.net"), "--no-stand-alone-step", "--format", "json"
    )
    assert json.loads(out)["results"]["allocation"]["payoffs"]["e3"] == "5/6"


def test_core_check_mechanism_and_exit_code(capsys, fig_dir):
    code, out = run_cli(
        capsys, "core-check", str(fig_dir / "fig1.net"), "--mechanism", "mc"
    )
    assert code == 2
    assert "CORE VIOLATION" in out
    code, out = run_cli(
        capsys,
        "core-check",
        str(fig_dir / "fig1.net"),
        "--payoff", "e1=0", "--payoff", "e2=0", "--payoff", "e3=1", "--payoff", "e4=1",
    )
    assert code == 0
    assert "IN CORE" in out


def test_core_check_rejects_unknown_and_missing_payoff_edges(capsys, fig_dir):
    good = ["--payoff", "e1=0", "--payoff", "e2=0", "--payoff", "e3=1"]
    code = main(["core-check", str(fig_dir / "fig9.net"), *good, "--payoff", "e4=1", "--payoff", "zz=5"])
    err = capsys.readouterr().err
    assert code == 1
    assert "zz" in err
    code = main(["core-check", str(fig_dir / "fig9.net"), *good])
    err = capsys.readouterr().err
    assert code == 1
    assert "e4" in err


def test_deviate_command(capsys, fig_dir):
    code, out = run_cli(
        capsys,
        "deviate",
        str(fig_dir / "fig1.net"),
        "--player", "e1",
        "--mechanism", "core-select",
    )
    assert code == 0
    assert "best report 1 pays 1 (gain 1)" in out


@pytest.mark.parametrize(
    "argv, message",
    [
        (["audit", "dsic", "fig1.net"], "the following arguments are required: --mechanism"),
        (["no-such-command", "fig1.net"], "argument subcommand: invalid choice: 'no-such-command'"),
        (["maxflow", "fig1.net", "--format", "yaml"], "argument --format: invalid choice: 'yaml'"),
        (["audit", "dsic", "fig1.net", "--mechanism", "mc", "--grid", "x"],
         "argument --grid: invalid int value: 'x'"),
        (["core-check", "fig1.net"], "one of the arguments --payoff --mechanism is required"),
        (["core-check", "fig1.net", "--payoff", "e1=1", "--mechanism", "mc"],
         "argument --mechanism: not allowed with argument --payoff"),
    ],
    ids=["missing-option", "unknown-subcommand", "bad-choice", "bad-int", "core-check-neither", "core-check-both"],
)
def test_usage_errors_exit_one(capsys, fig_dir, argv, message):
    """Exit status 2 means a violation, so argparse's usage errors exit 1,
    with the usage line and the message on standard error."""
    argv = [str(fig_dir / a) if a == "fig1.net" else a for a in argv]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: flowmech")
    assert message in captured.err.splitlines()[-1]


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["audit", "--help"]])
def test_help_and_version_exit_zero(capsys, argv):
    assert main(argv) == 0
    assert capsys.readouterr().out


def test_classify_pair_seed_without_samples_exits_one(capsys, fig_dir):
    code = main(["classify-pair", str(fig_dir / "fig1.net"), "--pair", "e1,e2", "--seed", "3"])
    assert code == 1
    assert capsys.readouterr().err == "error: --seed applies to --samples only\n"


def test_classify_pair_requires_seed_with_samples(capsys, fig_dir):
    code = main([
        "classify-pair", str(fig_dir / "fig1.net"), "--pair", "e1,e2", "--samples", "3",
    ])
    assert code == 1


def test_classify_pair_sampled_relation_on_neither(capsys, fig_dir):
    """Every sampled configuration of this disjoint source-out / sink-in
    pair has a positive four-corner second difference."""
    code, out = run_cli(
        capsys,
        "classify-pair", str(fig_dir / "neither.net"),
        "--pair", "e1,e5", "--samples", "4", "--seed", "3", "--format", "json",
    )
    assert code == 0
    pair = json.loads(out)["results"]["pair"]
    assert pair["sampled_relation"] == "complementary"
    assert pair["constant_claim"] == "supported"


def test_sweep_violating_nothing_exits_zero(capsys, fig_dir):
    code, out = run_cli(
        capsys,
        "sweep-theorem2",
        str(fig_dir / "fig1.net"),
        "--pair", "e1,e2",
        "--report", "e2=1/2",
        "--points", "4",
    )
    assert code == 0
    assert "case: inclusive" in out


def test_sweep_ignores_the_swept_edges_report(capsys, fig_dir):
    """The sweep sets the swept edge's report itself, so a report of 0 for
    it is the sweep at its true report."""
    argv = ["sweep-theorem2", str(fig_dir / "fig1.net"), "--pair", "e1,e2"]
    code, out = run_cli(capsys, *argv, "--report", "e1=0")
    assert code == 0
    assert "case: inclusive  (verdict: pass)" in out
    assert out == run_cli(capsys, *argv)[1]


def test_fixture_listing_and_emission(capsys, tmp_path):
    code, out = run_cli(capsys, "fixtures")
    assert code == 0
    assert set(out.split()) == set(fixture_names())
    code, out = run_cli(capsys, "fixtures", "--name", "fig1")
    assert out == fixture_text("fig1")
    out_dir = tmp_path / "emitted"
    code, _ = run_cli(capsys, "fixtures", "--out", str(out_dir))
    assert code == 0
    for name in fixture_names():
        text = (out_dir / f"{name}.net").read_text()
        assert parse_network(text) == load_fixture(name)


def test_repo_fixture_files_match_package():
    import pathlib

    repo = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
    for name in fixture_names():
        assert (repo / f"{name}.net").read_text() == fixture_text(name)
