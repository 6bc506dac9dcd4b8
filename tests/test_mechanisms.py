from dataclasses import fields
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flowmech.game
from flowmech import (
    Allocation,
    CharacteristicCache,
    coalition_value,
    core_bounds,
    core_bounds_all,
    core_check,
    core_select_nearest_cut,
    load_fixture,
    max_flow,
    mc_allocate,
    mc_no_step_one,
    members_of,
    parse_network,
    random_network,
    shapley,
    shapley_permutation_oracle,
)
from flowmech.audits import _Profile, check_mp, merge_parallel, parallel_pairs, split_edge
from flowmech.mechanisms import ShapleySweep
from flowmech.network import resolve_reports
from conftest import (
    OPTIMAL,
    assert_sweep_is_mc_allocate,
    deep_instances,
    load_benchmark_generator,
    mc_via_bruteforce,
    solve_standard_form_fraction_reference,
)


# ---------------------------------------------------------------------------
# Shapley values on the worked examples


def test_shapley_fan():
    alloc = shapley(load_fixture("fig2a"))
    assert alloc["e1"] == F(1, 30)
    # same marginal pattern for every outlet regardless of its extra capacity
    assert all(alloc[e] == F(1, 30) for e in ("e2", "e3", "e4", "e5"))
    assert alloc["e6"] == F(5, 6)
    assert alloc.total == 1


def test_shapley_split_fan():
    alloc = shapley(load_fixture("fig2b"))
    assert alloc["e1_1"] == F(1, 42)
    assert alloc["e1_2"] == F(1, 42)
    assert F(2, 42) > F(1, 30)


def test_shapley_parallel_pair_and_merge():
    pair = shapley(load_fixture("fig3a"))
    assert pair["e1"] == F(1, 6) and pair["e2"] == F(1, 6) and pair["e3"] == F(2, 3)
    merged = shapley(load_fixture("fig3b"))
    assert merged["e1+e2"] == F(1, 2) and merged["e3"] == F(1, 2)


def test_shapley_half_diamond_step():
    dia = load_fixture("fig4")
    base = shapley(dia)
    assert base.payoffs == {"e1": F(1, 3), "e2": F(1, 3), "e3": F(1, 6), "e4": F(1, 6)}
    bumped = shapley(dia, {"e1": F(3, 5)})
    assert bumped.payoffs == {
        "e1": F(23, 60),
        "e2": F(19, 60),
        "e3": F(1, 5),
        "e4": F(1, 5),
    }


def test_shapley_symmetric_diamond():
    alloc = shapley(load_fixture("fig1"), {"e1": 1})
    assert all(q == F(1, 2) for q in alloc.payoffs.values())


def test_shapley_single_edge_stand_alone():
    net = parse_network("edge e s t 7/3\n")
    assert shapley(net)["e"] == F(7, 3)
    assert shapley_permutation_oracle(net)["e"] == F(7, 3)


def test_shapley_terminal_edge_gets_stand_alone_value():
    chain = load_fixture("fig5")
    alloc = shapley(chain)
    assert alloc["e3"] == coalition_value(chain, None, ["e3"]) == 1
    assert alloc.payoffs == {"e1": F(1, 2), "e2": F(1, 2), "e3": F(1)}


def test_shapley_matches_oracle_on_fixtures(all_fixtures):
    for name, net in all_fixtures.items():
        if len(net.edges) > 7:
            continue
        fast = shapley(net)
        slow = shapley_permutation_oracle(net)
        assert fast.payoffs == slow.payoffs, name


def test_shapley_matches_oracle_on_multi_block_networks(block_corpus):
    # the permutation oracle's guard is 9 edges; past 7 it takes seconds
    nets = [net for net in block_corpus if len(net.edges) <= 7]
    assert len(nets) > 20
    for net in nets:
        assert shapley(net).payoffs == shapley_permutation_oracle(net).payoffs, net


def test_shapley_fills_each_block_once(compute_calls, augment_calls):
    # fig5's blocks {e1, e2} and {e3}: 3 + 1 coalition values, not 2^3 - 1,
    # of which the bounds pin {e1} and {e2} at 0
    assert shapley(load_fixture("fig5")).payoffs == {"e1": F(1, 2), "e2": F(1, 2), "e3": F(1)}
    assert len(compute_calls) == 4
    assert len(augment_calls) == 2


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=5_000))
def test_shapley_matches_oracle_random(seed):
    net = random_network(seed, max_nodes=5, max_edges=6)
    assert shapley(net).payoffs == shapley_permutation_oracle(net).payoffs


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=5_000))
def test_shapley_cut_cache_route_agrees(seed):
    net = random_network(seed)
    direct = shapley(net)
    via_cuts = shapley(net, cache=CharacteristicCache(net, method="cuts"))
    assert direct.payoffs == via_cuts.payoffs


# ---------------------------------------------------------------------------
# The cut-splitting mechanism


def test_mc_chain_with_terminal_edge():
    alloc = mc_allocate(load_fixture("fig5"))
    assert alloc.payoffs == {"e1": F(1, 2), "e2": F(1, 2), "e3": F(1)}


def test_mc_without_stand_alone_step():
    alloc = mc_no_step_one(load_fixture("fig5"))
    assert alloc["e3"] == F(5, 6)
    assert alloc["e3"] < 1  # pays the direct edge less than it earns alone
    assert alloc.payoffs == {"e1": F(1, 2), "e2": F(2, 3), "e3": F(5, 6)}


def test_mc_diamond():
    alloc = mc_allocate(load_fixture("fig1"))
    assert alloc.payoffs == {"e1": F(2, 3), "e2": F(1, 3), "e3": F(1, 2), "e4": F(1, 2)}


def test_mc_single_edge():
    net = parse_network("edge e s t 4/7\n")
    assert mc_allocate(net)["e"] == F(4, 7)
    assert mc_no_step_one(net)["e"] == F(4, 7)


def test_mc_no_terminal_edges_variants_agree():
    net = load_fixture("fig1")
    assert mc_allocate(net).payoffs == mc_no_step_one(net).payoffs


def test_mc_zero_report_edge_gets_nothing():
    net = load_fixture("fig1")
    alloc = mc_allocate(net, {"e2": 0})
    assert alloc["e2"] == 0
    assert alloc.total == max_flow(net, {"e2": 0}).value


def test_mc_matches_bruteforce_on_fixtures(all_fixtures):
    for name, net in all_fixtures.items():
        assert mc_allocate(net).payoffs == mc_via_bruteforce(net), name


def test_mc_matches_bruteforce_on_deep_dags(deep_corpus):
    for net in deep_corpus:
        for instance, reports in deep_instances(net):
            assert mc_allocate(instance, reports).payoffs == mc_via_bruteforce(instance, reports)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=5_000))
def test_mc_matches_bruteforce_random(seed):
    net = random_network(seed)
    assert mc_allocate(net).payoffs == mc_via_bruteforce(net)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=5_000))
def test_mc_positive_payoffs(seed):
    net = random_network(seed)
    alloc = mc_allocate(net)
    assert all(q > 0 for q in alloc.payoffs.values())


# ---------------------------------------------------------------------------
# The cut-splitting mechanism along one report


def test_mc_sweep_is_mc_allocate_on_fixtures(all_fixtures):
    for name, net in all_fixtures.items():
        halved = {eid: q / 2 for eid, q in list(net.caps().items())[1::2]}
        for reports in (None, halved, {net.edge_ids[0]: 0}):
            assert_sweep_is_mc_allocate(net, reports)


def test_mc_sweep_is_mc_allocate_on_random_networks():
    for seed in range(1, 61):
        assert_sweep_is_mc_allocate(random_network(seed, 7, 9))


def test_mc_sweep_is_mc_allocate_on_deep_dags(deep_corpus):
    for net in deep_corpus[:10]:
        for instance, reports in deep_instances(net):
            assert_sweep_is_mc_allocate(instance, reports)


def test_mc_sweep_is_mc_allocate_on_the_benchmark_dags():
    """The four layered DAG shapes of the `audit-deep` workload, at the
    capacities of seed 1."""
    gen = load_benchmark_generator()
    for k, shape in enumerate([(3, 3, 3), (3, 3, 5), (2, 4, 5), (2, 5, 4)]):
        assert_sweep_is_mc_allocate(gen.layered_dag(k, 1000 + k, *shape))


@pytest.mark.parametrize(
    "fixture, reports, eid",
    [
        ("fig5", None, "e3"),
        ("fig4", None, "e1"),
        ("fig4", {"e2": 0}, "e1"),
        ("fig1", {"e2": 0}, "e2"),
    ],
    ids=["direct-edge", "parallel-copy", "parallel-copy-alone", "reported-at-zero"],
)
def test_mc_sweep_special_edges(fixture, reports, eid):
    """A direct source-sink edge is paid its report and moves nobody
    else; a parallel copy keeps its arc in the family at 0 while another
    copy is positive and drops it when it is the only positive copy; an
    edge reported at 0 in the base profile sweeps from there."""
    net = load_fixture(fixture)
    assert_sweep_is_mc_allocate(net, reports)
    sweep = _Profile.of(net, "mc", reports).along(eid)
    if net.is_terminal_edge(eid):
        others = [{k: q for k, q in sweep.allocation(r).payoffs.items() if k != eid} for r in (F(1, 3), F(5))]
        assert others[0] == others[1]
        assert sweep.payoff(F(5, 2)) == F(5, 2)
    assert sweep.payoff(F(0)) == 0


@pytest.mark.parametrize(
    "text, reports",
    [
        ("edge a s t 1\nedge b s t 2\nedge c s m 1\nedge d m t 3/2\n", None),
        ("edge a s m 1\nedge b s m 1/2\nedge c m t 1\n", None),
        ("edge a s m 1\nedge b s m 1/2\nedge c m t 1\n", {"b": 0}),
        ("edge a s m 1\nedge b s m 1/2\nedge c m t 1\n", {"a": 0, "b": 0}),
    ],
    ids=["direct-parallel-edges", "parallel-copy", "partner-at-zero", "both-at-zero"],
)
def test_mc_sweep_splits_and_merges_special_edges(text, reports):
    """Direct parallel edges split into parts paid their reports and merge
    into one paid the sum; a copy whose partner, or which itself, is
    reported at 0 keeps its arc in the family; two copies at 0 merge into
    an edge paid 0 and still split by the family with the arc.  The merge
    audit refuses an edge paired with itself and a pair that is not
    parallel."""
    net = parse_network(text)
    assert_sweep_is_mc_allocate(net, reports)
    caps = resolve_reports(net, reports)
    sweep = _Profile.of(net, "mc", reports).along("a")
    if net.is_terminal_edge("a"):
        assert sweep.split_payoff(F(1, 3), F(5, 7)) == F(22, 21) and sweep.merged_payoff("b") == 3
    if not caps["a"] + caps["b"]:
        assert sweep.merged_payoff("b") == 0 and sweep.split_payoff(F(1, 3), F(2, 3)) > 0
    with pytest.raises(ValueError, match="the two edges must differ"):
        check_mp(net, "mc", reports, "a", "a")
    with pytest.raises(ValueError, match="not parallel"):
        check_mp(net, "mc", reports, "a", "c")


# ---------------------------------------------------------------------------
# The Shapley value along one report


def _shapley_points(caps, eid):
    """0, the base report and half of it, two new denominators, and two
    points above the base."""
    return sorted({F(0), caps[eid], caps[eid] / 2, F(1, 7), F(13, 11), caps[eid] + F(1, 3), 2 * caps[eid] + 1})


def assert_shapley_sweep_is_shapley(net, reports=None):
    """Every edge's `ShapleySweep` equals `shapley` at every point (the same
    payoffs in the same key order and the same total), its split payoffs
    equal the pair's on the split network, on the edge's report and off it,
    and its merged payoffs the merged edge's on the merged network."""
    caps = resolve_reports(net, reports)
    table = CharacteristicCache(net, caps)
    for eid in net.edge_ids:
        sweep = ShapleySweep(table, eid)
        for r in _shapley_points(caps, eid):
            want = shapley(net, {**caps, eid: r})
            got = sweep.allocation(r)
            assert (got, list(got.payoffs)) == (want, list(want.payoffs)), (eid, r)
            assert sweep.payoff(r) == want.payoffs[eid], (eid, r)
        b = caps[eid]
        for qa, qb in [(b / 2, b / 2), (b / 4, 3 * b / 4), (F(1, 5), F(2, 3))]:
            split_net, split_reports, (a, c) = split_edge(net, {**caps, eid: qa + qb}, eid, qa, qb)
            want = shapley(split_net, split_reports)
            assert sweep.split_payoff(qa, qb) == want.payoffs[a] + want.payoffs[c], (eid, qa, qb)
    for a, b in parallel_pairs(net):
        merged_net, merged_reports, merged = merge_parallel(net, caps, a, b)
        assert ShapleySweep(table, a).merged_payoff(b) == shapley(merged_net, merged_reports)[merged]


def test_shapley_sweep_is_shapley_on_fixtures(all_fixtures):
    for net in all_fixtures.values():
        halved = {eid: q / 2 for eid, q in list(net.caps().items())[1::2]}
        for reports in (None, halved, {net.edge_ids[0]: 0}):
            assert_shapley_sweep_is_shapley(net, reports)


def test_shapley_sweep_is_shapley_on_random_networks():
    for seed in range(1, 41):
        assert_shapley_sweep_is_shapley(random_network(seed, 7, 9))


def test_shapley_sweep_is_shapley_on_deep_dags(deep_corpus):
    for net in deep_corpus[:4]:
        for instance, reports in deep_instances(net):
            assert_shapley_sweep_is_shapley(instance, reports)


@pytest.mark.parametrize(
    "text, reports, eid",
    [
        ("edge a s t 1\nedge b s t 2\nedge c s m 1\nedge d m t 3/2\n", None, "a"),
        ("edge a s m 1\nedge b s m 1/2\nedge c m t 1\n", None, "a"),
        ("edge a s m 1\nedge b s m 1/2\nedge c m t 1\n", {"b": 0}, "a"),
        ("edge a s m 1\nedge b m t 1\nedge c s t 1\n", {"a": 0}, "a"),
    ],
    ids=["direct-parallel-edges", "parallel-copy", "parallel-copy-alone", "reported-at-zero"],
)
def test_shapley_sweep_special_edges(text, reports, eid):
    """A direct edge, a parallel copy (alone or not), and an edge reported
    at 0; a direct edge's payoff is its report and moves nobody else, and
    two direct parallel edges merge into one paid the sum.  The merge audit
    refuses the edge paired with itself and a pair that is not parallel."""
    net = parse_network(text)
    assert_shapley_sweep_is_shapley(net, reports)
    sweep = ShapleySweep(CharacteristicCache(net, reports), eid)
    assert sweep.payoff(F(0)) == 0
    if net.is_terminal_edge(eid):
        others = [{k: q for k, q in sweep.allocation(r).payoffs.items() if k != eid} for r in (F(1, 3), F(9))]
        assert others[0] == others[1]
        assert sweep.payoff(F(9)) == 9 and sweep.merged_payoff("b") == 3
    with pytest.raises(ValueError, match="the two edges must differ"):
        check_mp(net, "shapley", reports, eid, eid)
    with pytest.raises(ValueError, match="not parallel"):
        check_mp(net, "shapley", reports, eid, "c")


def test_shapley_sweep_is_the_permutation_oracle():
    """The independent check: along each edge's report, the sweep equals
    the average marginal contribution over all arrival orders."""
    for net in [load_fixture("fig4"), load_fixture("neither"), *[random_network(seed, 5, 6) for seed in range(1, 9)]]:
        caps = net.caps()
        for eid in net.edge_ids:
            sweep = ShapleySweep(CharacteristicCache(net, caps), eid)
            for r in (F(0), caps[eid] / 3, caps[eid] + F(1, 2)):
                want, got = shapley_permutation_oracle(net, {**caps, eid: r}), sweep.allocation(r)
                assert (got.payoffs, got.total) == (want.payoffs, want.total), (eid, r)


# ---------------------------------------------------------------------------
# Efficiency and own-report monotonicity


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=5_000))
def test_every_mechanism_is_efficient(seed):
    net = random_network(seed)
    grand = max_flow(net).value
    for mechanism in (shapley, mc_allocate, mc_no_step_one, core_select_nearest_cut):
        alloc = mechanism(net)
        assert alloc.total == grand
        assert sum(alloc.payoffs.values()) == grand
        assert all(q >= 0 for q in alloc.payoffs.values())


def test_allocation_totals_are_the_payoff_sums(mixed_report_corpus):
    """An allocation's total is its payoffs' exact sum, and efficiency makes
    it the max-flow value.  The payoffs come in edge order, which the CLI's rows follow and
    dict equality does not check.  The permutation oracle's n! orders are
    run up to 6 edges, and on the corpus's first 7-edge and first 8-edge
    network."""
    oracle_sizes = {7, 8}
    for net, reports in mixed_report_corpus:
        mechanisms = [shapley, mc_allocate, mc_no_step_one, core_select_nearest_cut]
        n = len(net.edges)
        if n <= 6 or n in oracle_sizes:
            mechanisms.append(shapley_permutation_oracle)
            oracle_sizes.discard(n)
        flow = max_flow(net, reports).value
        for mechanism in mechanisms:
            alloc = mechanism(net, reports)
            assert type(alloc.total) is F, (mechanism.__name__, net, reports)
            assert alloc.total == sum(alloc.payoffs.values(), F(0)) == flow, (mechanism.__name__, net, reports)
            assert list(alloc.payoffs) == list(net.edge_ids), (mechanism.__name__, net, reports)
    assert not oracle_sizes


def test_a_custom_allocation_totals_its_payoffs():
    """A custom mechanism builds its allocation from a name and payoffs
    alone: the total is their exact sum, and no stored field of its own."""
    alloc = Allocation("custom", {"a": F(1, 3), "b": F(1, 6), "c": F(0)})
    assert alloc.total == F(1, 2) and type(alloc.total) is F
    assert Allocation("custom", {}).total == 0 and type(Allocation("custom", {}).total) is F
    assert [f.name for f in fields(Allocation)] == ["mechanism", "payoffs"]
    assert "total" not in repr(alloc)
    with pytest.raises(TypeError):
        Allocation("custom", {"a": F(1)}, F(1))


def test_efficiency_on_fixtures(all_fixtures):
    for net in all_fixtures.values():
        grand = max_flow(net).value
        for mechanism in (shapley, mc_allocate, core_select_nearest_cut):
            assert mechanism(net).total == grand


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=5_000))
def test_terminal_edges_get_their_stand_alone_value(seed):
    net = random_network(seed)
    terminal = net.terminal_edge_ids()
    if not terminal:
        return
    sh = shapley(net, cache=CharacteristicCache(net, method="cuts"))
    mc = mc_allocate(net)
    for eid in terminal:
        stand_alone = net.edge(eid).cap
        assert sh[eid] == stand_alone
        assert mc[eid] == stand_alone


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=2_000), st.integers(min_value=0, max_value=7))
def test_own_report_monotone(seed, pick):
    net = random_network(seed, max_nodes=5, max_edges=6)
    eid = net.edge_ids[pick % len(net.edges)]
    cap = net.edge(eid).cap
    grid = [cap * F(k, 5) for k in range(1, 6)]
    for mechanism in (shapley, mc_allocate):
        values = [mechanism(net, {eid: r})[eid] for r in grid]
        assert all(a <= b for a, b in zip(values, values[1:])), (mechanism.__name__, eid)


# ---------------------------------------------------------------------------
# Core machinery


def test_core_check_unique_point():
    net = load_fixture("fig1")
    assert core_check(net, None, {"e1": F(0), "e2": F(0), "e3": F(1), "e4": F(1)})


def test_core_check_symmetric_point():
    nine = load_fixture("fig9")
    half = {eid: F(1, 2) for eid in nine.edge_ids}
    assert core_check(nine, None, half)


def test_core_check_violation_witness():
    nine = load_fixture("fig9")
    verdict = core_check(nine, None, {"e1": F(2), "e2": F(0), "e3": F(0), "e4": F(0)})
    assert not verdict
    assert verdict.coalition == {"e2", "e3"}
    assert verdict.coalition_value == 1
    assert verdict.payoff_sum == 0


def test_mc_can_leave_the_core():
    net = load_fixture("fig1")
    verdict = core_check(net, None, mc_allocate(net))
    assert not verdict
    assert verdict.coalition == {"e2", "e3"}
    assert verdict.payoff_sum == F(5, 6) and verdict.coalition_value == 1


def test_core_bounds_diamond_singleton():
    net = load_fixture("fig1")
    assert core_bounds_all(net) == {
        "e1": (F(0), F(0)),
        "e2": (F(0), F(0)),
        "e3": (F(1), F(1)),
        "e4": (F(1), F(1)),
    }


def test_core_bounds_all_fills_one_coalition_table(monkeypatch):
    net = random_network(21, 6, 10)
    calls = []

    augment = flowmech.game._augment

    def counting_augment(*args, **kwargs):
        calls.append(1)
        return augment(*args, **kwargs)

    monkeypatch.setattr("flowmech.game._augment", counting_augment)
    bounds = core_bounds_all(net)
    assert len(net.edges) == 7
    assert len(calls) <= 2 ** len(net.edges) - 1
    monkeypatch.undo()
    assert bounds == {eid: core_bounds(net, None, eid) for eid in net.edge_ids}


def test_core_bounds_fill_only_the_edge_block(compute_calls, augment_calls):
    net = load_fixture("fig5")
    assert core_bounds(net, None, "e3") == (F(1), F(1))
    assert len(compute_calls) == 1  # the block {e3}
    assert len(augment_calls) == 1
    assert core_bounds(net, None, "e1") == (F(0), F(1))
    assert len(compute_calls) == 1 + 3  # the block {e1, e2}
    assert len(augment_calls) == 1 + 1  # {e1} and {e2} are pinned at 0


def test_core_bounds_names_an_unknown_edge_before_building_a_table(monkeypatch):
    def no_table(*args, **kwargs):
        raise AssertionError("a coalition table was built")

    monkeypatch.setattr("flowmech.mechanisms.CharacteristicCache", no_table)
    with pytest.raises(KeyError) as caught:
        core_bounds(load_fixture("fig1"), None, "zz")
    assert caught.value.args == ("unknown edge id 'zz'",)


def test_core_bounds_unit_diamond_interval():
    nine = load_fixture("fig9")
    assert core_bounds(nine, None, "e1") == (F(0), F(1))


def test_core_bounds_absent_edge_singleton():
    nine = load_fixture("fig9")
    assert core_bounds_all(nine, {"e1": 0}) == {
        "e1": (F(0), F(0)),
        "e2": (F(1), F(1)),
        "e3": (F(0), F(0)),
        "e4": (F(0), F(0)),
    }


def test_core_bounds_single_edge():
    net = parse_network("edge e s t 5/2\n")
    assert core_bounds(net, None, "e") == (F(5, 2), F(5, 2))


def test_core_bounds_against_sympy():
    from sympy import Rational, symbols
    from sympy.solvers.simplex import lpmax, lpmin

    for seed in (3, 17):
        net = random_network(seed, max_nodes=4, max_edges=5)
        cache = CharacteristicCache(net).populate()
        n = cache.n
        xs = symbols(f"x0:{n}")
        constraints = []
        for mask in range(1, (1 << n) - 1):
            v = cache.value(mask)
            expr = sum(xs[i] for i in range(n) if mask >> i & 1)
            constraints.append(expr >= Rational(v.numerator, v.denominator))
        grand = cache.value((1 << n) - 1)
        total = sum(xs)
        constraints.append(total <= Rational(grand.numerator, grand.denominator))
        constraints.append(total >= Rational(grand.numerator, grand.denominator))
        for i, eid in enumerate(net.edge_ids):
            lo, hi = core_bounds(net, None, eid)
            lo_ref, _ = lpmin(xs[i], constraints)
            hi_ref, _ = lpmax(xs[i], constraints)
            assert lo == F(lo_ref.p, lo_ref.q), (seed, eid)
            assert hi == F(hi_ref.p, hi_ref.q), (seed, eid)


def _whole_graph_values(net, reports=None):
    """Every coalition's value, by mask, from one whole-graph max flow each."""
    return [coalition_value(net, reports, members_of(net, mask)) for mask in range(1 << len(net.edges))]


def _full_dual_bounds(net):
    """Core bounds of every edge from the dual with a column for every
    proper coalition, in Fractions straight from the coalition values,
    solved by the two-phase reference, which needs no starting basis."""
    value = _whole_graph_values(net)
    n = len(net.edges)
    grand = (1 << n) - 1
    masks = range(1, grand)
    A = [[F(mask >> i & 1) for mask in masks] + [F(1), F(-1)] for i in range(n)]
    obj = [value[mask] for mask in masks] + [value[grand], -value[grand]]
    bounds = {}
    for target, eid in enumerate(net.edge_ids):
        extremes = []
        for sign in (1, -1):
            result = solve_standard_form_fraction_reference(A, [F(sign if i == target else 0) for i in range(n)], obj)
            assert result.status == OPTIMAL
            extremes.append(result.value)
        bounds[eid] = (extremes[0], -extremes[1])
    return bounds


def test_essential_columns_give_the_full_dual_bounds(all_fixtures, block_corpus):
    from flowmech.mechanisms import _CoreDual

    nets = list(all_fixtures.values()) + [random_network(seed) for seed in range(1, 41)]
    # the Fraction dual over all 2^n - 2 coalitions is slow past 8 edges
    nets += [net for net in block_corpus if len(net.edges) <= 8]
    dropped = 0
    for net in nets:
        assert core_bounds_all(net) == _full_dual_bounds(net)
        cache = CharacteristicCache(net)
        for block in cache._blocks:
            if block & (block - 1):
                # 2^m - 2 proper sub-coalitions against the kept columns plus z+ and z-
                dropped += (1 << block.bit_count()) - len(_CoreDual(cache, block).obj)
    assert dropped > 0  # the restriction removed columns, so the comparison means something


def test_core_dual_starts_from_a_feasible_basis_for_both_signs(block_corpus, monkeypatch):
    """Every member of every block in `block_corpus`, minimised and
    maximised: the solver accepts the singleton start (z- in the target's
    row when minimising), and the LP value equals the two-phase Fraction
    reference's on the same matrix."""
    from flowmech.mechanisms import _CoreDual

    # the guard counts every edge of the network; the joined networks have
    # up to 15, in blocks of at most 7
    monkeypatch.setenv("FLOWMECH_MAX_EDGES", "15")
    sizes = set()
    for net in block_corpus:
        cache = CharacteristicCache(net)
        for block in cache._blocks:
            dual = _CoreDual(cache, block)
            sizes.add(len(dual.A))
            for target in range(len(dual.A)):
                for sign in (1, -1):
                    b = [sign if i == target else 0 for i in range(len(dual.A))]
                    ref = solve_standard_form_fraction_reference(dual.A, b, dual.obj)
                    assert ref.status == OPTIMAL
                    assert dual._extreme(target, sign) == ref.value / dual.scale
    assert 1 in sizes and max(sizes) >= 4


def test_core_dual_of_a_one_edge_block_keeps_its_singleton():
    """fig5's block {e3} is one direct edge: its singleton column is the
    block itself, a copy of z+, and both bounds are its value."""
    from flowmech.mechanisms import _CoreDual

    net = load_fixture("fig5")
    cache = CharacteristicCache(net)
    block = 1 << net.position("e3")
    assert block in cache._blocks
    dual = _CoreDual(cache, block)
    v = cache.value_scaled(block)
    assert dual.A == [[1, 1, -1]] and dual.obj == [v, v, -v]
    assert dual.bounds(net.position("e3")) == (F(1), F(1))


def _core_check_reference(net, payoffs, value):
    """The coalition scan in Fractions over whole-graph coalition values:
    (in core, smallest violated mask's members, its value, its payoff sum)."""
    n = len(net.edges)
    x = [F(payoffs[eid]) for eid in net.edge_ids]
    grand = (1 << n) - 1
    if sum(x) != value[grand]:
        return False, frozenset(net.edge_ids), value[grand], sum(x)
    for mask in range(1, grand):
        total = sum((x[i] for i in range(n) if mask >> i & 1), F(0))
        if total < value[mask]:
            return False, members_of(net, mask), value[mask], total
    return True, None, None, None


def test_core_check_matches_fraction_scan(block_corpus):
    nets = [random_network(seed, 6, 9) for seed in range(1, 61)] + block_corpus
    for net in nets:
        candidates = [mc_allocate(net).payoffs, shapley(net).payoffs, core_select_nearest_cut(net).payoffs]
        # move 1/7 from the first edge to the last: efficiency holds, a
        # coalition constraint may break
        shifted = dict(candidates[2])
        first, last = net.edge_ids[0], net.edge_ids[-1]
        shifted[first] -= F(1, 7)
        shifted[last] += F(1, 7)
        candidates += [shifted, {eid: F(1, 3) for eid in net.edge_ids}]
        value = _whole_graph_values(net)
        for payoffs in candidates:
            verdict = core_check(net, None, payoffs)
            got = (verdict.in_core, verdict.coalition, verdict.coalition_value, verdict.payoff_sum)
            assert got == _core_check_reference(net, payoffs, value), net
            assert all(v is None or type(v) is F for v in got[2:])


def test_core_check_finds_the_smallest_violation_across_blocks():
    """The blocks {e2, e3} (mask 6) and {e1, e4} (mask 9) interleave in the
    edge order, so the block scanned first holds the larger violated mask:
    {e2} (mask 2) there, {e1} (mask 1) in the other.  A negative payoff
    violates its singleton."""
    net = parse_network("edge e1 s b 1\nedge e2 s a 1\nedge e3 a t 1\nedge e4 b t 1\n")
    assert net.blocks == (0b0110, 0b1001)
    payoffs = {"e1": F(-1), "e2": F(-1), "e3": F(2), "e4": F(2)}
    verdict = core_check(net, None, payoffs)
    got = (verdict.in_core, verdict.coalition, verdict.coalition_value, verdict.payoff_sum)
    assert got == _core_check_reference(net, payoffs, _whole_graph_values(net))
    assert got == (False, frozenset({"e1"}), 0, -1)


def test_core_check_rejects_missing_unknown_and_float_payoffs():
    nine = load_fixture("fig9")
    good = {"e1": F(0), "e2": F(0), "e3": F(1), "e4": F(1)}
    assert core_check(nine, None, good)
    with pytest.raises(KeyError, match="zz"):
        core_check(nine, None, {**good, "zz": F(5)})
    with pytest.raises(KeyError, match="e4"):
        core_check(nine, None, {eid: good[eid] for eid in ("e1", "e2", "e3")})
    with pytest.raises(TypeError, match="payoff"):
        core_check(nine, None, {eid: 0.5 for eid in nine.edge_ids})
    assert core_check(nine, None, {eid: "1/2" for eid in nine.edge_ids})


def test_nearest_cut_selection_examples():
    net = load_fixture("fig1")
    assert core_select_nearest_cut(net).payoffs == {
        "e1": F(0),
        "e2": F(0),
        "e3": F(1),
        "e4": F(1),
    }
    assert core_select_nearest_cut(net, {"e1": 1}).payoffs == {
        "e1": F(1),
        "e2": F(1),
        "e3": F(0),
        "e4": F(0),
    }
    single = parse_network("edge e s t 9\n")
    assert core_select_nearest_cut(single)["e"] == 9


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=5_000))
def test_nearest_cut_selection_always_in_core(seed):
    net = random_network(seed)
    alloc = core_select_nearest_cut(net)
    assert core_check(net, None, alloc)
