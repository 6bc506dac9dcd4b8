from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowmech import (
    UNBOUNDED,
    PairKind,
    check_mp,
    check_sp,
    classify_pair_structure,
    critical_value,
    cuts,
    enumerate_minimal_cuts,
    load_fixture,
    max_flow,
    mc_allocate,
    merge_parallel,
    min_cut_nearest_source,
    minimal_cuts_bruteforce,
    parallel_pairs,
    parse_network,
    random_network,
    resolve_reports,
    split_edge,
)
from flowmech.network import scaled_weights
from conftest import (
    critical_value_three_flows,
    deep_instances,
    is_essential,
    layered_dag,
    mc_via_bruteforce,
    pair_structure_reference,
    strip_terminal_edges,
)


def cut_families_equal(net, reports=None) -> bool:
    fast = enumerate_minimal_cuts(net, reports)
    slow = minimal_cuts_bruteforce(net, reports)
    return set(fast.cuts) == set(slow.cuts) and fast.flow_value == slow.flow_value


def test_diamond_family():
    family = enumerate_minimal_cuts(load_fixture("fig1"))
    assert set(family.cuts) == {frozenset({"e1", "e2"}), frozenset({"e3", "e4"})}
    assert family.flow_value == 2
    assert min(family.cut_capacities) == 2


def test_single_path_family():
    net = parse_network("edge a s m 1\nedge b m t 1\n")
    family = enumerate_minimal_cuts(net)
    assert set(family.cuts) == {frozenset({"a"}), frozenset({"b"})}


def test_stripped_chain_family():
    stripped = strip_terminal_edges(load_fixture("fig5"))
    family = enumerate_minimal_cuts(stripped)
    assert set(family.cuts) == {frozenset({"e1"}), frozenset({"e2"})}
    assert family.flow_value == 1


def test_raw_chain_family_includes_terminal_edge():
    family = enumerate_minimal_cuts(load_fixture("fig5"))
    assert set(family.cuts) == {frozenset({"e1", "e3"}), frozenset({"e2", "e3"})}
    assert family.flow_value == 2


def test_single_terminal_edge_family():
    net = parse_network("edge e s t 4\n")
    for fn in (enumerate_minimal_cuts, minimal_cuts_bruteforce):
        family = fn(net)
        assert set(family.cuts) == {frozenset({"e"})}


def test_zero_reports_empty_family():
    net = load_fixture("fig1")
    family = enumerate_minimal_cuts(net, {eid: 0 for eid in net.edge_ids})
    assert family.cuts == () and family.flow_value == 0


def test_zero_report_member_excluded():
    net = load_fixture("fig1")
    family = enumerate_minimal_cuts(net, {"e2": 0})
    assert set(family.cuts) == {frozenset({"e1"}), frozenset({"e3", "e4"})}


def test_families_match_oracle_on_fixtures(all_fixtures):
    for name, net in all_fixtures.items():
        assert cut_families_equal(net), name
        assert cut_families_equal(strip_terminal_edges(net)), name


def test_family_members_are_minimal_cuts(all_fixtures):
    for net in all_fixtures.values():
        family = enumerate_minimal_cuts(net)
        for M in family.cuts:
            absent = {eid: 0 for eid in M}
            assert max_flow(net, absent).value == 0  # removing M disconnects
            for eid in M:  # dropping any single member reconnects
                partial = {e: 0 for e in M if e != eid}
                assert max_flow(net, partial).value > 0


def test_positive_nonterminal_edges_covered(all_fixtures):
    for name, net in all_fixtures.items():
        stripped = strip_terminal_edges(net)
        family = enumerate_minimal_cuts(stripped)
        covered = set().union(*family.cuts) if family.cuts else set()
        assert covered == set(stripped.edge_ids), name


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_families_match_oracle_random(seed):
    net = random_network(seed)
    assert cut_families_equal(net)


def test_families_match_oracle_on_deep_dags(deep_corpus):
    for net in deep_corpus:
        for instance, reports in deep_instances(net):
            assert enumerate_minimal_cuts(instance, reports) == minimal_cuts_bruteforce(instance, reports)


def test_arc_families_exact_on_multigraphs(deep_corpus):
    """The family is enumerated over arcs, each group of parallel edges
    counted once, and expanded to the positive copies.  It must equal the
    brute-force family over edges, and mc its brute-force recomputation, on
    an edge of `random_network(s, 6, 10)` split 1:2 (as split, with one half
    reported at 0 and with another edge reported at 0) for s = 1..60, and on
    every parallel pair of the deep DAGs merged."""
    instances = []
    for seed in range(1, 61):
        net = random_network(seed, 6, 10)
        k = seed % len(net.edges)
        q = net.edges[k].cap
        split, reports, (half, _) = split_edge(net, None, net.edge_ids[k], q / 3, q * 2 / 3)
        other = split.edge_ids[(k + 3) % len(split.edges)]
        instances += [(split, reports), (split, {**reports, half: 0}), (split, {**reports, other: 0})]
    for net in deep_corpus:
        for pair in parallel_pairs(net):
            merged, reports, _ = merge_parallel(net, None, *pair)
            instances.append((merged, reports))
    assert sum(1 for net, _ in instances if len(net.topology.arcs) < len(net.edges)) >= 180
    for net, reports in instances:
        assert enumerate_minimal_cuts(net, reports) == minimal_cuts_bruteforce(net, reports)
        assert mc_allocate(net, reports).payoffs == mc_via_bruteforce(net, reports)


def test_arc_cut_totals_are_their_arc_weight_sums(cut_corpus):
    """`arc_cuts` gives each cut's total, the scaled weights of the edges on
    its arcs added up, and the smallest total is the max flow.  With the
    first edge at 0 and its arc allowed, that arc adds 0 to every total and
    the smallest is the flow without the edge."""
    for net in cut_corpus:
        first = net.edge_ids[0]
        for reports, also in ((None, 0), ({first: 0}, 1 << net.topology.arc_of[0])):
            scale, weights = scaled_weights(net, resolve_reports(net, reports))
            arc_weight = [sum(w for k, w in enumerate(weights) if copies >> k & 1) for copies in net.topology.copies]
            family, totals = cuts.arc_cuts(net, weights, also)
            assert totals == [sum(arc_weight[a] for a in cut) for cut in family], (net, reports)
            assert Fraction(min(totals, default=0), scale) == max_flow(net, reports).value, (net, reports)


def test_split_and_merge_reuse_the_parent_family():
    """A split-proofness check of one edge and a merge-proofness check of
    one pair each enumerate one family, for the base allocation, and read
    it back once, for the edge's sweep, which answers every split point
    and the merge.  Split and merged networks have the parent's arcs, so
    `mc_allocate` on them reads the parent's family back too."""
    net = layered_dag(3)
    (a, b), *_ = parallel_pairs(net)

    def cache_use():
        info = cuts._minimal_cutsets.cache_info()
        return info.misses, info.hits

    for eid in net.edge_ids:
        cuts._minimal_cutsets.cache_clear()
        check_sp(net, "mc", None, eid)
        assert cache_use() == (1, 1), eid
        half = net.edge(eid).cap / 2
        mc_allocate(*split_edge(net, None, eid, half, half)[:2])
        assert cache_use() == (1, 2), eid
    cuts._minimal_cutsets.cache_clear()
    check_mp(net, "mc", None, a, b)
    assert cache_use() == (1, 1)
    mc_allocate(*merge_parallel(net, None, a, b)[:2])
    assert cache_use() == (1, 2)


def test_duality_on_fixtures(all_fixtures):
    for net in all_fixtures.values():
        family = enumerate_minimal_cuts(net)
        assert min(family.cut_capacities) == max_flow(net).value


def test_nearest_cut_diamond():
    net = load_fixture("fig1")
    assert min_cut_nearest_source(net) == {"e3", "e4"}
    assert min_cut_nearest_source(net, {"e1": 1}) == {"e1", "e2"}


def test_nearest_cut_single_edge():
    net = parse_network("edge e s t 2\n")
    assert min_cut_nearest_source(net) == {"e"}


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_nearest_cut_is_minimum_cut(seed):
    net = random_network(seed)
    cut = min_cut_nearest_source(net)
    value = max_flow(net).value
    assert sum(net.edge(e).cap for e in cut) == value
    assert max_flow(net, {eid: 0 for eid in cut}).value == 0


def test_nearest_cut_invariant_under_edge_order():
    from flowmech import FlowNetwork

    net = load_fixture("fig1")
    shuffled = FlowNetwork(net.nodes, tuple(reversed(net.edges)), net.source, net.sink)
    assert min_cut_nearest_source(shuffled, {"e1": 1}) == min_cut_nearest_source(net, {"e1": 1})


def test_critical_values():
    dia = load_fixture("fig4")
    assert critical_value(dia, {"e2": Fraction(1, 2)}, "e1") == Fraction(3, 2)
    assert critical_value(parse_network("edge e s t 5\n"), None, "e") is UNBOUNDED
    series = parse_network("edge a s m 1\nedge b m t 2\n")
    assert critical_value(series, None, "a") == 2


def test_essential_edges():
    dia = load_fixture("fig4")
    assert is_essential(dia, {"e2": Fraction(1, 2)}, "e1")  # 1/2 <= 3/2
    chain = load_fixture("fig5")
    assert critical_value(chain, None, "e2") == 1
    assert not is_essential(chain, None, "e2")  # report 2 > threshold 1
    assert is_essential(parse_network("edge e s t 5\n"), None, "e")


def test_critical_value_matches_the_three_flow_definition():
    """Only a direct source-sink edge is unbounded.  The earlier definition
    told it apart by a third flow, at the proxy B and at B + 1; both agree on
    every edge, zero reports included."""
    unbounded = 0
    for seed in range(1, 121):
        net = random_network(seed, 6, 9)
        reports = {eid: 0 if k % 3 == seed % 3 else q for k, (eid, q) in enumerate(net.caps().items())}
        for eid in net.edge_ids:
            expected = critical_value_three_flows(net, reports, eid)
            got = critical_value(net, reports, eid)
            assert got is expected if expected is UNBOUNDED else got == expected, (seed, eid)
            assert is_essential(net, reports, eid) == (expected is UNBOUNDED or reports[eid] <= expected)
            unbounded += expected is UNBOUNDED
    assert unbounded > 0


def test_nearest_cut_and_critical_value_match_their_fraction_definitions(mixed_report_corpus):
    """On mixed-denominator reports with zeros, parallel and direct edges,
    and split and merged deep DAGs: the nearest cut is the set of positive
    edges leaving the public `max_flow` source side, every critical value
    equals the three-flow reference, and exactly the direct edges are
    UNBOUNDED."""
    for net, reports in mixed_report_corpus:
        caps = resolve_reports(net, reports)
        side = max_flow(net, reports).source_side
        expected = {e.id for e in net.edges if caps[e.id] > 0 and e.tail in side and e.head not in side}
        assert min_cut_nearest_source(net, reports) == expected, (net, reports)
        for eid in net.edge_ids:
            got = critical_value(net, reports, eid)
            assert (got is UNBOUNDED) == net.is_terminal_edge(eid), (net, reports, eid)
            assert got == critical_value_three_flows(net, reports, eid), (net, reports, eid)


def test_analyze_edge_bundles_threshold_and_status():
    """Threshold and essentiality of one edge read together: fig5's e2 has
    critical value 1 below its report 2, and the direct edge e3 is unbounded
    and essential."""
    chain = load_fixture("fig5")
    assert critical_value(chain, None, "e2") == 1
    assert not is_essential(chain, None, "e2")
    assert critical_value(chain, None, "e3") is UNBOUNDED
    assert is_essential(chain, None, "e3")


def flow_with(net, eid, x):
    """Max-flow value with one edge's capacity overridden."""
    return max_flow(net, {eid: x}).value


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=5_000), st.integers(min_value=0, max_value=7))
def test_flow_function_shape(seed, pick):
    """Non-decreasing, concave, strictly rising below the critical value and
    flat above it."""
    net = random_network(seed)
    eid = net.edge_ids[pick % len(net.edges)]
    threshold = critical_value(net, None, eid)
    if threshold is UNBOUNDED:
        assert net.is_terminal_edge(eid)
        return
    floor = flow_with(net, eid, 0)
    top = Fraction(threshold) + 2
    grid = [Fraction(k) * top / 8 for k in range(9)]
    values = [flow_with(net, eid, x) for x in grid]
    for a, b in zip(values, values[1:]):
        assert a <= b
    for left, mid, right in zip(values, values[1:], values[2:]):
        assert mid * 2 >= left + right  # midpoint concavity on the even grid
    for x, v in zip(grid, values):
        if x <= threshold:
            assert v == floor + x  # unit slope while the edge binds
        else:
            assert v == floor + threshold


def test_flow_function_rejects_float_and_bad_override():
    net = load_fixture("fig1")
    assert flow_with(net, "e1", "1/10") == flow_with(net, "e1", Fraction(1, 10))
    with pytest.raises(TypeError):
        flow_with(net, "e1", 0.1)
    with pytest.raises(ValueError):
        flow_with(net, "e1", -1)
    with pytest.raises(KeyError):
        flow_with(net, "nope", 1)


def test_pair_structure_diamond():
    net = load_fixture("fig1")
    reports = {"e2": Fraction(1, 2)}
    assert classify_pair_structure(net, reports, "e1", "e3").kind is PairKind.INDEPENDENT
    assert classify_pair_structure(net, reports, "e1", "e2").kind is PairKind.INCLUSIVE


def test_pair_structure_parallel_with_spare_source_edge():
    net = parse_network("edge e0 s A 1\nedge e1 s A 1\nedge e2 A t 1\n")
    assert classify_pair_structure(net, None, "e1", "e2").kind is PairKind.INDEPENDENT


def test_pair_structure_condition_two():
    # parallel source edges ahead of a narrow outlet: {e2} is not a minimum
    # cut once e1 is deleted unless e2's report stays under the outlet
    net = parse_network("edge e1 s A 1\nedge e2 s A 2\nedge e3 A t 1\n")
    assert classify_pair_structure(net, None, "e1", "e2").kind is PairKind.NEITHER
    assert (
        classify_pair_structure(net, {"e2": Fraction(1, 2)}, "e1", "e2").kind
        is PairKind.INCLUSIVE
    )


def test_pair_structure_bridge_witness():
    net = load_fixture("neither")
    assert classify_pair_structure(net, None, "e2", "e4").kind is PairKind.NEITHER


def test_pair_structure_matches_the_max_flow_reference(
    every_augment_call, all_fixtures, mixed_report_corpus
):
    """Every ordered pair of non-terminal edges on the fixtures and the mixed
    report corpus: the structure equals the reference, whose inclusive test
    takes the flow with the first edge at 0 from `max_flow`, while the
    library reads that flow off the cut family and runs no max flow."""
    cases = [(net, None) for net in all_fixtures.values()] + mixed_report_corpus
    # the three kinds, and neither both before and after the inclusive test
    outcomes = set()
    for net, reports in cases:
        inner = [eid for eid in net.edge_ids if not net.is_terminal_edge(eid)]
        for e1 in inner:
            for e2 in inner:
                if e1 == e2:
                    continue
                expected = pair_structure_reference(net, reports, e1, e2)
                every_augment_call.clear()
                got = classify_pair_structure(net, reports, e1, e2)
                assert not every_augment_call, (net, reports, e1, e2)
                assert got == expected, (net, reports, e1, e2)
                outcomes.add((got.kind, bool(got.note)))
    assert len(outcomes) == 4, outcomes


def test_pair_structure_rejects_terminal_edge():
    net = load_fixture("fig5")
    with pytest.raises(ValueError, match="source to sink"):
        classify_pair_structure(net, None, "e3", "e1")


def test_pair_structure_ignores_other_terminal_edges():
    net = load_fixture("fig5")
    structure = classify_pair_structure(net, None, "e1", "e2")
    assert structure.kind is PairKind.INDEPENDENT
