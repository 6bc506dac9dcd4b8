import json
import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowmech import (
    Edge,
    FlowNetwork,
    NetworkError,
    ParseError,
    as_rational,
    load_fixture,
    max_flow,
    mc_allocate,
    parse_network,
    prune_to_paths,
    random_network,
    render_network,
    resolve_reports,
    shapley,
    split_edge,
    validate,
)
from flowmech.cuts import _has_path
from flowmech.network import _blocks, scaled_weights
from conftest import BAD_JSON_NETWORKS, blocks_reference, on_path_arcs_reference, reachable_reference


def test_parse_single_edge():
    net = parse_network("edge e1 s t 3/2\n")
    assert net.nodes == ("s", "t")
    assert net.source == "s" and net.sink == "t"
    assert net.edge("e1").cap == Fraction(3, 2)


def test_parse_diamond_fixture():
    net = load_fixture("fig1")
    assert len(net.nodes) == 3
    assert [str(e.cap) for e in net.edges] == ["2", "1", "1", "1"]
    assert net.source == "s" and net.sink == "t"


def test_parse_rejects_zero_capacity():
    with pytest.raises(ParseError, match="non-positive capacity"):
        parse_network("edge e1 s t 0\n")


def test_parse_rejects_negative_capacity():
    with pytest.raises(ParseError, match="non-positive capacity"):
        parse_network("edge e1 s t -1/2\n")


def test_decimal_literals_convert_exactly():
    for literal, exact in (("0.5", Fraction(1, 2)), ("1e3", Fraction(1000)), ("2.5E-1", Fraction(1, 4))):
        assert parse_network(f"edge e1 s t {literal}\n").edge("e1").cap == exact
        doc = '{"edges": [{"id": "e1", "from": "s", "to": "t", "cap": %s}]}' % literal
        assert parse_network(doc).edge("e1").cap == exact
        assert as_rational(literal) == exact


@pytest.mark.parametrize(
    "literal, fits",
    [
        ("1e4299", True),
        ("1e4300", False),
        ("1e-4299", True),
        ("1e-4300", False),
        ("9" * 4300, True),
        ("9" * 4301, False),
        ("1/" + "9" * 4300, True),
        ("1/" + "9" * 4301, False),
        ("0." + "1" * 4299, True),
        ("0." + "1" * 4300, False),
        ("1e+0004300", False),
        ("1e1_0000_0000", False),
        ("5e" + "9" * 5000, False),
    ],
    ids=lambda v: v if isinstance(v, bool) or len(v) < 16 else f"{v[:6]}..{len(v)}",
)
def test_literals_past_the_digit_limit_are_refused(literal, fits):
    """The limit is 4300 digits in the numerator or the denominator as
    written, the exponent's power of ten included."""
    if fits:
        assert as_rational(literal) == Fraction(literal)
    else:
        with pytest.raises(ValueError, match="capacity has more than 4300 digits"):
            as_rational(literal, what="capacity")
        with pytest.raises(ParseError, match="line 1: capacity has more than 4300 digits"):
            parse_network(f"edge e1 s t {literal}\n")


def test_json_ints_past_the_digit_limit_are_a_parse_error():
    doc = '{"edges": [{"id": "e1", "from": "s", "to": "t", "cap": %s}]}'
    assert parse_network(doc % ("9" * 4300)).edge("e1").cap == int("9" * 4300)
    with pytest.raises(ParseError, match="JSON number has more than 4300 digits"):
        parse_network(doc % ("9" * 4301))


def test_parse_duplicate_edge_id():
    with pytest.raises(ParseError, match="duplicate edge id"):
        parse_network("edge e1 s a 1\nedge e1 a t 1\n")


def test_parse_reports_line_numbers():
    with pytest.raises(ParseError, match="line 2"):
        parse_network("edge e1 s a 1\nedge e2 a t junk\n")


def test_parse_ambiguous_source_needs_declaration():
    text = "edge e1 a t 1\nedge e2 b t 1\n"
    with pytest.raises(ParseError, match="cannot infer source"):
        parse_network(text)
    net = parse_network("source a\nsink t\n" + text)
    assert net.source == "a"


def test_parse_json_document():
    doc = """
    {"nodes": ["s", "A", "t"],
     "edges": [{"id": "e1", "from": "s", "to": "A", "cap": "2"},
               {"id": "e2", "from": "A", "to": "t", "cap": "1/3"}],
     "source": "s", "sink": "t"}
    """
    net = parse_network(doc)
    assert net.edge("e2").cap == Fraction(1, 3)


def test_parse_json_decimal_is_exact():
    net = parse_network('{"edges": [{"id": "e", "from": "s", "to": "t", "cap": 0.1}]}')
    assert net.edge("e").cap == Fraction(1, 10)


@pytest.mark.parametrize("doc, field", BAD_JSON_NETWORKS)
def test_parse_json_rejects_wrong_types(doc, field):
    with pytest.raises(ParseError, match=field):
        parse_network(json.dumps(doc))


@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(lambda: parse_network("edg e1 s t 1"), "line 1: unknown directive 'edg'", id="directive"),
        pytest.param(
            lambda: parse_network("edge e1 s t"), "line 1: expected: edge <id> <tail> <head> <capacity>", id="arity"
        ),
        pytest.param(
            lambda: parse_network("{bad json"),
            "invalid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)",
            id="json-syntax",
        ),
        pytest.param(
            lambda: load_fixture("fig1").replace_edge("e1", [Edge("e2", "s", "A", Fraction(1))]),
            "duplicate edge id 'e2' after replacement",
            id="replace-to-existing-id",
        ),
    ],
)
def test_text_level_faults_are_refused(build, message):
    """Line syntax, JSON syntax and a replacement that repeats an id."""
    with pytest.raises(NetworkError) as err:
        build()
    assert err.value.args == (message,)


@pytest.mark.parametrize("value", [{"a": 1}, ["1"], None, 1.5, True])
def test_as_rational_refuses_other_types(value):
    with pytest.raises(TypeError, match="must be an int, Fraction, or string"):
        as_rational(value)


#: report vectors every entry point must refuse, with the exception type and
#: message each raises
BAD_REPORTS = [
    pytest.param({"e1": 1.5}, TypeError, "report for e1 must be an int, Fraction, or string, not float", id="float"),
    pytest.param({"e1": True}, TypeError, "report for e1 must be an int, Fraction, or string, not bool", id="true"),
    pytest.param({"e1": False}, TypeError, "report for e1 must be an int, Fraction, or string, not bool", id="false"),
    pytest.param({"e1": Fraction(-1, 2)}, ValueError, "negative report for e1: -1/2", id="negative-fraction"),
    pytest.param({"e1": -1}, ValueError, "negative report for e1: -1", id="negative-int"),
    pytest.param({"e1": "-1/2"}, ValueError, "negative report for e1: -1/2", id="negative-string"),
    pytest.param({"e1": "1/x"}, ValueError, "malformed rational report for e1: '1/x'", id="malformed-string"),
    pytest.param(
        {"e1": "1e100000"}, ValueError,
        "report for e1 has more than 4300 digits in its numerator or denominator", id="oversized-string",
    ),
    pytest.param({"zz": 1}, KeyError, "unknown edge id 'zz' in reports", id="unknown-edge"),
]


@pytest.mark.parametrize("reports, error, message", BAD_REPORTS)
@pytest.mark.parametrize("entry", [resolve_reports, mc_allocate, shapley, max_flow])
def test_bad_reports_are_refused_the_same_way_everywhere(entry, reports, error, message):
    with pytest.raises(error) as caught:
        entry(load_fixture("fig1"), reports)
    assert type(caught.value) is error
    assert caught.value.args == (message,)


def test_fraction_subclass_reports_are_accepted():
    class Report(Fraction):
        pass

    net = load_fixture("fig1")
    plain = {"e1": Fraction(1, 3), "e3": Fraction(0)}
    sub = {eid: Report(q) for eid, q in plain.items()}
    assert resolve_reports(net, sub) == resolve_reports(net, plain)
    for entry in (mc_allocate, shapley):
        assert entry(net, sub) == entry(net, plain)
    assert max_flow(net, sub) == max_flow(net, plain)


def test_scaled_weights_follow_edge_order():
    net = parse_network("edge b s a 1/2\nedge a a t 2/3\nedge c s t 3\n")
    caps = {"c": Fraction(3), "a": Fraction(2, 3), "b": Fraction(1, 2)}
    assert scaled_weights(net, caps) == (6, [3, 4, 18])


def test_parse_json_unknown_node():
    doc = '{"nodes": ["s", "t"], "edges": [{"id": "e", "from": "s", "to": "x", "cap": "1"}]}'
    with pytest.raises(ParseError, match="unknown node"):
        parse_network(doc)


def faulty_edge_list(seed: int) -> tuple[list[tuple[str, str, str, str]], dict[str, str]]:
    """Seeded edge list, as (id, tail, head, capacity text), with the faults
    the edge rules refuse: repeated ids, capacities that are 0, negative,
    `1/0` or `x`, and empty lists; and declared terminals, some of them a
    stray node `z` that no edge touches."""
    rng = random.Random(seed)
    edges = []
    for k in range(1, rng.randint(0, 5) + 1):
        eid = f"e{rng.randint(1, k)}" if rng.random() < 0.15 else f"e{k}"
        cap = rng.choice(["1", "2", "3/2", "0.5"] * 4 + ["0", "-1", "1/0", "x"])
        edges.append((eid, rng.choice("sab"), rng.choice("abt"), cap))
    terminals = {"source": rng.choice(["s", "s", None, "z"]), "sink": rng.choice(["t", "t", None, "z"])}
    return edges, {role: end for role, end in terminals.items() if end is not None}


def as_line_text(edges, terminals) -> str:
    lines = [f"edge {eid} {tail} {head} {cap}" for eid, tail, head, cap in edges]
    return "\n".join(lines + [f"{role} {end}" for role, end in terminals.items()]) + "\n"


def as_json_text(edges, terminals) -> str:
    def cap_value(text):  # integers as JSON numbers, the rest as strings
        return int(text) if text.lstrip("-").isdigit() else text

    items = [{"id": eid, "from": tail, "to": head, "cap": cap_value(cap)} for eid, tail, head, cap in edges]
    return json.dumps({"edges": items, **terminals})


def parse_outcome(text: str):
    """The parsed network, or the parse error's message without the prefix
    that places it in its format (`line N: ` or `edge 'id': `)."""
    try:
        return parse_network(text)
    except ParseError as exc:
        return re.sub(r"^(line \d+|edge '[^']*'): ", "", str(exc))


def test_both_encodings_follow_one_set_of_edge_rules():
    """The same faulty edge list, written in the line format and as JSON,
    gives the same network or the same error in both."""
    errors = ["duplicate edge id", "non-positive capacity", "malformed rational capacity", "no edges defined", "cannot infer"]
    tally = Counter()
    for seed in range(600):
        edges, terminals = faulty_edge_list(seed)
        outcome = parse_outcome(as_line_text(edges, terminals))
        assert parse_outcome(as_json_text(edges, terminals)) == outcome, (edges, terminals)
        if isinstance(outcome, FlowNetwork):
            tally["stray terminal" if "z" in outcome.nodes else "network"] += 1
        else:
            tally.update(kind for kind in errors if outcome.startswith(kind))
    assert all(tally[kind] >= 20 for kind in errors + ["network", "stray terminal"]), tally


@pytest.mark.parametrize(
    "doc, message",
    [
        pytest.param({"edges": [], "source": 5}, "no edges defined", id="no-edges-before-terminal-type"),
        pytest.param({"edges": [], "sink": ["t"]}, "no edges defined", id="no-edges-before-sink-type"),
        pytest.param(
            {"nodes": ["s", "t"], "edges": [{"id": "e1", "from": "s", "to": "t", "cap": 1},
                                            {"id": "e1", "from": "s", "to": "x", "cap": 1}]},
            "duplicate edge id 'e1'",
            id="duplicate-id-before-unknown-node",
        ),  # fmt: skip
        pytest.param(
            {"nodes": ["s", "t"], "edges": [{"id": "e1", "from": "s", "to": "x", "cap": 0}]},
            "edge 'e1' references unknown node 'x'",
            id="unknown-node-before-capacity",
        ),
        pytest.param(
            {"edges": [{"id": "e1", "from": "s", "to": "t", "cap": True}]},
            "edge 'e1': capacity must be an int, Fraction, or string, not bool",
            id="cap-true",
        ),
        pytest.param(
            {"edges": [{"id": "e1", "from": "s", "to": "t", "cap": None}]},
            "edge 'e1': capacity must be an int, Fraction, or string, not NoneType",
            id="cap-null",
        ),
    ],
)
def test_json_errors_keep_their_precedence_and_text(doc, message):
    with pytest.raises(ParseError) as caught:
        parse_network(json.dumps(doc))
    assert str(caught.value) == message


def test_validate_diamond_ok():
    assert validate(load_fixture("fig1")).ok


def test_validate_all_fixtures(all_fixtures):
    for name, net in all_fixtures.items():
        assert validate(net).ok, name


def test_validate_self_loop_is_cycle():
    net = parse_network("edge e1 s A 1\nedge e2 A A 1\nedge e3 A t 1\n")
    report = validate(net)
    assert not report.ok
    assert any(d.code == "cycle" for d in report.diagnostics)


def test_validate_dangling_edge():
    text = "\n".join(
        [
            "edge e1 s A 2",
            "edge e2 s A 1",
            "edge e3 A t 1",
            "edge e4 A t 1",
            "edge e5 A B 1",  # B has no way to t
            "sink t",
        ]
    )
    net = parse_network(text)
    report = validate(net)
    assert not report.ok
    codes = {d.code for d in report.diagnostics}
    assert "off-path-edge" in codes
    assert "extra-sink" in codes  # both failures reported, not only the first

    pruned, dropped = prune_to_paths(net)
    assert dropped == ("e5",)
    assert validate(pruned).ok


def test_validate_reports_multiple_failures():
    net = parse_network(
        "source s\nsink t\nedge e1 s t 1\nedge e2 a a 1\n"
    )
    report = validate(net)
    assert len(report.errors()) >= 2


def test_validate_reports_unknown_nodes_and_duplicate_ids():
    """Faults the parsers refuse, on networks built directly: an endpoint
    missing from the node list is a diagnostic, not a KeyError, and two
    edges with one id are refused before max_flow can merge their flows."""
    one = Fraction(1)
    stray = FlowNetwork(("s", "t"), (Edge("e1", "s", "x", one), Edge("e2", "x", "t", one)), "s", "t")
    report = validate(stray)
    assert not report.ok
    assert [(d.code, d.entity) for d in report.diagnostics] == [("unknown-node", "e1"), ("unknown-node", "e2")]
    assert "'x'" in report.diagnostics[0].message

    twice = FlowNetwork(("s", "t"), (Edge("e1", "s", "t", 2 * one), Edge("e1", "s", "t", 2 * one)), "s", "t")
    report = validate(twice)
    assert not report.ok
    assert [(d.code, d.entity) for d in report.diagnostics] == [("duplicate-edge-id", "e1")]

    both = FlowNetwork(("s", "t"), (Edge("e1", "s", "t", one), Edge("e1", "s", "y", -one)), "s", "t")
    codes = [d.code for d in validate(both).diagnostics]
    assert codes == ["duplicate-edge-id", "unknown-node", "nonpositive-capacity"]


def test_json_terminal_outside_the_edges_is_a_node():
    """A declared source or sink becomes a node, as a 'source' line makes
    it one, so validation names it."""
    net = parse_network('{"edges": [{"id": "e1", "from": "a", "to": "b", "cap": 1}], "source": "x"}')
    assert net.nodes == ("a", "b", "x") and (net.source, net.sink) == ("x", "b")
    assert [(d.code, d.entity) for d in validate(net).diagnostics] == [
        ("extra-source", "a"),
        ("isolated-node", "x"),
        ("off-path-edge", "e1"),
    ]
    net = parse_network('{"nodes": ["s", "t"], "edges": [{"id": "e1", "from": "s", "to": "t", "cap": 1}], "sink": "y"}')
    assert net.nodes == ("s", "t", "y") and (net.source, net.sink) == ("s", "y")


def test_validate_reports_a_terminal_that_is_not_a_node():
    """On a network built directly, a source or sink missing from the node
    list is an unknown-node diagnostic, and the graph checks are skipped."""
    edges = (Edge("e1", "s", "t", Fraction(1)),)
    for source, sink in (("x", "t"), ("s", "y"), ("x", "y")):
        report = validate(FlowNetwork(("s", "t"), edges, source, sink))
        strays = [end for end in (source, sink) if end not in ("s", "t")]
        assert [(d.code, d.entity) for d in report.diagnostics] == [("unknown-node", end) for end in strays]
    assert validate(FlowNetwork(("s", "t"), edges, "x", "t")).diagnostics[0].message == "source 'x' is not a node"


def faulty_network(seed: int) -> FlowNetwork:
    """Seeded small network, built directly, with the faults the structural
    checks report: edges join any two nodes, so cycles, self-loops, isolated
    nodes and extra sources and sinks occur; one network in seven has a
    source or sink that is not a node, and one the same node as both."""
    rng = random.Random(seed)
    nodes = ["s", "t", "a", "b", "c", "d", "z"][: rng.randint(2, 7)]
    edges = tuple(
        Edge(f"e{k}", rng.choice(nodes), rng.choice(nodes), Fraction(rng.randint(1, 3)))
        for k in range(1, rng.randint(1, 9) + 1)
    )
    source, sink = rng.choice([("s", "t")] * 4 + [("x", "t"), ("s", "y"), ("s", "s")])
    return FlowNetwork(tuple(nodes), edges, source, sink)


def test_structural_walks_match_the_named_references():
    """The index walks against the named-node references: the off-path
    diagnostics and `prune_to_paths` against `on_path_arcs_reference`, the
    blocks against `blocks_reference` and the cut family's path test
    against `reachable_reference` over random edge subsets, on 700 faulty
    networks that must show every fault."""
    rng = random.Random(0)
    tally = Counter()
    for seed in range(700):
        net = faulty_network(seed)
        pairs = [(e.tail, e.head) for e in net.edges]
        on_path = on_path_arcs_reference(pairs, net.source, net.sink)
        off = tuple(e.id for e, on in zip(net.edges, on_path) if not on)
        assert prune_to_paths(net) == (net.without_edges(off), off)
        report = validate(net)
        tally.update(d.code for d in report.diagnostics)
        tally["self-loop"] += any(e.tail == e.head for e in net.edges)
        strays = [end for end in (net.source, net.sink) if end not in net.nodes]
        if strays:
            assert [(d.code, d.entity) for d in report.diagnostics] == [("unknown-node", end) for end in strays]
            continue
        assert [d.entity for d in report.diagnostics if d.code == "off-path-edge"] == list(off)
        assert _blocks(net) == blocks_reference(net)
        copies = net.topology.copies
        for mask in [(1 << len(pairs)) - 1] + [rng.getrandbits(len(pairs)) for _ in range(6)]:
            allowed = [pair for k, pair in enumerate(pairs) if mask >> k & 1]
            joined = net.sink in reachable_reference(net.source, allowed)
            assert _has_path(net.topology, [c & mask for c in copies]) == joined
    faults = ["cycle", "self-loop", "isolated-node", "extra-source", "extra-sink", "source-degree",
              "sink-degree", "source-equals-sink", "off-path-edge", "unknown-node"]  # fmt: skip
    assert all(tally[fault] >= 20 for fault in faults), tally


def test_render_round_trip_fixtures(all_fixtures):
    for name, net in all_fixtures.items():
        assert parse_network(render_network(net)) == net, name


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_render_round_trip_random(seed):
    net = random_network(seed)
    assert parse_network(render_network(net)) == net


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_random_networks_validate(seed):
    assert validate(random_network(seed)).ok


def test_topology_merges_parallel_edges_and_drops_capacities():
    net = parse_network("edge a s m 1\nedge b m t 2\nedge c s m 3\nedge d s t 1\n")
    topology = net.topology
    assert topology.arcs == (("s", "m"), ("m", "t"), ("s", "t"))
    assert topology.arc_of == (0, 1, 0, 2)
    assert topology.copies == (0b0101, 0b0010, 0b1000)
    recapped = parse_network("edge x s m 5\nedge y m t 1/2\nedge z s t 7\n")
    split, _, _ = split_edge(recapped, None, "y", Fraction(1, 4), Fraction(1, 4))
    assert recapped.topology == topology and hash(recapped.topology) == hash(topology)
    assert split.topology == topology and split.topology.arc_of == (0, 1, 1, 2)
    reordered = parse_network("edge b m t 2\nedge a s m 1\nedge d s t 1\n")
    assert reordered.topology != topology


def test_topology_leaves_equality_hash_and_repr_alone():
    net = load_fixture("fig1")
    twin = parse_network(render_network(net))
    before = (repr(net), hash(net))
    net.topology, net.arc_table
    assert (repr(net), hash(net)) == before
    assert net == twin and hash(net) == hash(twin) and repr(net) == repr(twin)
    assert "topology" not in repr(net)


def test_edge_ids_are_built_once_and_leave_equality_and_hash_alone():
    net = load_fixture("fig4")
    twin = parse_network(render_network(net))
    before = (repr(net), hash(net))
    assert net.edge_ids is net.edge_ids
    assert net.edge_ids == tuple(e.id for e in net.edges)
    assert (repr(net), hash(net)) == before
    assert net == twin and hash(net) == hash(twin)
    assert "edge_ids" not in repr(net)
