from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowmech import (
    Edge,
    FlowNetwork,
    coalition_value,
    load_fixture,
    max_flow,
    parse_network,
    random_network,
    render_network,
)
from flowmech import maxflow
from flowmech.network import ArcTable, resolve_reports, scaled_weights
from conftest import (
    assert_exact_flow,
    deep_instances,
    flow_value_via_cuts,
    load_benchmark_generator,
    max_flow_fraction_reference,
    strip_terminal_edges,
)


def test_diamond_values():
    net = load_fixture("fig1")
    assert max_flow(net).value == 2
    assert max_flow(net, {"e1": 1}).value == 2


def test_single_edge_identity():
    net = parse_network("edge e s t 7/3\n")
    assert max_flow(net).value == Fraction(7, 3)


def test_half_diamond_step():
    net = load_fixture("fig4")
    assert max_flow(net).value == 1
    assert max_flow(net, {"e1": Fraction(3, 5)}).value == Fraction(11, 10)


def test_zero_report_deletes_edge():
    net = load_fixture("fig5")
    assert max_flow(net, {"e3": 0}).value == 1
    assert max_flow(net, {"e1": 0, "e3": 0}).value == 0


def test_coalition_values():
    net = load_fixture("fig1")
    assert coalition_value(net, None, ["e1", "e3", "e4"]) == 2
    assert coalition_value(net, None, ["e3", "e4"]) == 0
    assert coalition_value(net, None, []) == 0
    chain = load_fixture("fig5")
    assert coalition_value(chain, None, ["e3"]) == 1
    assert coalition_value(load_fixture("fig1"), None, ["e2", "e3", "e4"]) == 1


def test_two_parameter_series_is_min():
    net = parse_network("edge a s m 1\nedge b m t 1\n")
    for x, y in [(0, 0), (1, 2), (Fraction(1, 3), Fraction(5, 2))]:
        assert max_flow(net, {"a": x, "b": y}).value == min(Fraction(x), Fraction(y))


def test_two_parameter_parallel_is_sum():
    net = parse_network("edge a s t 1\nedge b s t 1\n")
    assert max_flow(net, {"a": Fraction(1, 2), "b": Fraction(3, 4)}).value == Fraction(5, 4)


def test_two_parameter_half_diamond_baseline():
    net = load_fixture("fig4")
    assert max_flow(net, {"e1": Fraction(1, 2), "e2": Fraction(1, 2)}).value == 1


def test_witness_flow_exact_on_fixtures(all_fixtures):
    for net in all_fixtures.values():
        assert_exact_flow(net)


def test_determinism():
    net = load_fixture("fig1")
    a = max_flow(net)
    b = max_flow(net)
    assert a == b
    assert a.edge_flows == b.edge_flows and a.source_side == b.source_side


def test_value_invariant_under_edge_list_order():
    net = load_fixture("fig1")
    shuffled = FlowNetwork(net.nodes, tuple(reversed(net.edges)), net.source, net.sink)
    assert max_flow(shuffled).value == max_flow(net).value
    assert max_flow(shuffled).source_side == max_flow(net).source_side


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_flow_invariants_random(seed):
    net = random_network(seed)
    result = assert_exact_flow(net)
    assert result.value == flow_value_via_cuts(net)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=5_000),
    st.integers(min_value=0, max_value=7),
    st.fractions(min_value=0, max_value=3),
)
def test_flow_monotone_in_single_capacity(seed, pick, bump):
    net = random_network(seed)
    eid = net.edge_ids[pick % len(net.edges)]
    base = max_flow(net).value
    raised = max_flow(net, {eid: net.edge(eid).cap + bump}).value
    lowered = max_flow(net, {eid: net.edge(eid).cap * Fraction(1, 2)}).value
    assert raised >= base >= lowered


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=5_000),
    st.integers(min_value=0, max_value=255),
    st.integers(min_value=0, max_value=255),
)
def test_coalition_value_monotone(seed, raw_small, raw_big):
    net = random_network(seed)
    n = len(net.edges)
    small = raw_small & ((1 << n) - 1)
    big = small | (raw_big & ((1 << n) - 1))
    ids = net.edge_ids
    v_small = coalition_value(net, None, [ids[i] for i in range(n) if small >> i & 1])
    v_big = coalition_value(net, None, [ids[i] for i in range(n) if big >> i & 1])
    assert v_small <= v_big


def test_reports_validation():
    net = load_fixture("fig1")
    with pytest.raises(KeyError):
        max_flow(net, {"nope": 1})
    with pytest.raises(ValueError):
        max_flow(net, {"e1": -1})
    with pytest.raises(TypeError):
        max_flow(net, {"e1": 0.25})


def assert_matches_reference(net, reports=None):
    got = max_flow(net, reports)
    want = max_flow_fraction_reference(net, reports)
    assert got.value == want.value
    assert got.edge_flows == want.edge_flows
    assert list(got.edge_flows) == list(net.edge_ids)
    assert got.source_side == want.source_side
    assert type(got.value) is Fraction
    assert all(type(q) is Fraction for q in got.edge_flows.values())


def test_max_flow_matches_fraction_reference_random():
    mixed = (Fraction(1, 3), Fraction(2, 7), Fraction(5, 4))
    for seed in range(1, 151):
        net = random_network(seed)
        reports = {eid: mixed[k % 3] for k, eid in enumerate(net.edge_ids)}
        zeroed = {eid: (Fraction(0) if k % 3 == 1 else q) for k, (eid, q) in enumerate(reports.items())}
        for variant in (None, reports, zeroed):
            assert_matches_reference(net, variant)


def test_max_flow_matches_fraction_reference_on_deep_dags(deep_corpus):
    """Truthful, mixed (1/3, 2/7, 5/4) and partly zero reports, and the
    split and merged networks, on the layered DAGs."""
    for net in deep_corpus:
        for inst_net, reports in deep_instances(net):
            assert_matches_reference(inst_net, reports)


def test_arc_table_leaves_equality_hash_and_round_trip_alone():
    net = random_network(7)
    twin = parse_network(render_network(net))
    before = hash(net)
    table = net.arc_table
    assert net.arc_table is table
    assert net == twin and hash(net) == before == hash(twin)
    assert "arc_table" not in vars(twin)
    assert parse_network(render_network(net)) == net


def test_derived_networks_get_their_own_arc_table():
    net = load_fixture("fig5")
    first = net.edges[0]
    derived = [
        net.replace_edge(first.id, [Edge("a1", first.tail, first.head, first.cap / 3),
                                    Edge("a2", first.tail, first.head, first.cap * 2 / 3)]),
        net.without_edges([first.id]),
        strip_terminal_edges(net),
    ]
    assert_matches_reference(net)
    for other in derived:
        assert other.arc_table is not net.arc_table
        assert vars(other.arc_table) == vars(ArcTable.build(other))
        assert_matches_reference(other)
        assert_matches_reference(net)


# ---------------------------------------------------------------------------
# Corner flows continued from a neighbouring corner's residual


#: parallel copies of one arc (a, b; c, g), a direct source-sink edge (d)
PARALLEL_AND_DIRECT = """\
edge a s u 1
edge b s u 2/3
edge c u t 5/7
edge g u t 1/3
edge d s t 1/3
edge h s v 2
edge k v t 3/7
"""


def _mixed_reports(net, salt=0):
    """Reports over denominators 1, 3 and 7, every fourth one 0."""
    return {
        eid: Fraction(0) if (k + salt) % 4 == 3 else Fraction((k + salt) % 5 + 1, (1, 3, 7)[(k + salt) % 3])
        for k, eid in enumerate(net.edge_ids)
    }


def assert_warm_corners_are_cold(net, reports, edges):
    """Each corner flow of `_corner_flows` (every corner but 0 continued from
    another's residual) equals a cold `_augment` and the public max flow at
    that corner's capacities, and its residual gives the public max flow's
    source side, the side of the minimum cut nearest the source, although
    a continued flow may differ from the cold one."""
    scale, weights = scaled_weights(net, resolve_reports(net, reports))
    big, flows, residuals = maxflow._corner_flows(net, scale, weights, edges)
    assert big == maxflow._proxy_big(scale, weights, edges)
    assert len(flows) == len(residuals) == 1 << len(edges)
    for mask, (value, residual) in enumerate(zip(flows, residuals)):
        corner = list(weights)
        for m, k in enumerate(edges):
            corner[k] = big if mask >> m & 1 else 0
        assert value == maxflow._augment(net, corner)[0], (net, reports, edges, mask)
        caps = {eid: Fraction(w, scale) for eid, w in zip(net.edge_ids, corner)}
        want = max_flow(net, caps)
        assert Fraction(value, scale) == want.value, (net, reports, edges, mask)
        assert maxflow.source_side(net, residual) == want.source_side, (net, reports, edges, mask)


def _edge_sets(net):
    """Every single edge, and each edge with the next one in edge order."""
    n = len(net.edges)
    return [[k] for k in range(n)] + [[k, (k + 1) % n] for k in range(n) if n > 1]


def test_warm_corner_flows_equal_cold_ones(fuzz_corpus):
    """Over the fuzz corpus, a few `perfbench` layered DAG shapes and a
    network with parallel copies of arcs and a direct source-sink edge, at
    the true capacities, at all-zero reports and at mixed reports over the
    denominators 1, 3 and 7 with some zeros."""
    gen = load_benchmark_generator()
    nets = list(fuzz_corpus) + [parse_network(PARALLEL_AND_DIRECT)]
    nets += [gen.layered_dag(k, 1000 + k, *shape) for k, shape in enumerate([(3, 3, 3), (2, 4, 5), (2, 5, 4)])]
    for net in nets:
        for reports in (None, dict.fromkeys(net.edge_ids, 0), _mixed_reports(net)):
            for edges in _edge_sets(net):
                assert_warm_corners_are_cold(net, reports, edges)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.data(),
)
def test_warm_corner_flows_equal_cold_ones_random(seed, data):
    net = random_network(seed, 7, 10)
    n = len(net.edges)
    reports = {
        eid: Fraction(data.draw(st.integers(0, 9)), data.draw(st.sampled_from((1, 3, 7))))
        for eid in net.edge_ids
    }
    first = data.draw(st.integers(0, n - 1))
    edges = [first]
    if n > 1 and data.draw(st.booleans()):
        edges.append(data.draw(st.integers(0, n - 1).filter(lambda k: k != first)))
    assert_warm_corners_are_cold(net, reports, edges)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.data(),
)
def test_augment_continued_from_lower_capacities_is_the_cold_max_flow(seed, data):
    """A max flow at capacities `low`, with every forward residual raised by
    the step to `high`, is a feasible start under `high`; augmenting on
    gives the cold max flow value there."""
    net = random_network(seed, 7, 10)
    low = [data.draw(st.integers(0, 6)) for _ in net.edges]
    high = [w + data.draw(st.integers(0, 6)) for w in low]
    value, residual = maxflow._augment(net, low)
    for k, (a, b) in enumerate(zip(low, high)):
        residual[2 * k] += b - a
    assert maxflow._augment(net, high, (value, residual))[0] == maxflow._augment(net, high)[0]
