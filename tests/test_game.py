import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowmech import (
    CharacteristicCache,
    SizeGuardError,
    coalition_value,
    core_bounds,
    core_check,
    enumerate_minimal_cuts,
    load_fixture,
    mask_of,
    members_of,
    parse_network,
    random_network,
    shapley,
)
from flowmech.guards import guard_size
from flowmech.network import _blocks


def test_build_cache_small_graph():
    cache = CharacteristicCache(load_fixture("fig3a")).populate()
    assert len(cache) == 8
    assert cache.value(0) == 0
    assert cache.value((1 << cache.n) - 1) == 1


def test_cache_examples():
    net = load_fixture("fig1")
    cache = CharacteristicCache(net)
    assert cache.value(mask_of(net, ["e2", "e3", "e4"])) == 1
    assert cache.value(mask_of(net, [])) == 0
    assert cache.value(mask_of(net, net.edge_ids)) == 2


def test_mask_helpers():
    net = parse_network("edge e1 s a 1\nedge e2 a t 1\nedge e3 s t 1\n")
    assert mask_of(net, ["e1", "e3"]) == 0b101
    assert members_of(net, 0b101) == {"e1", "e3"}
    with pytest.raises(KeyError) as err:
        mask_of(net, ["nope"])
    assert err.value.args == ("unknown edge id 'nope'",)


def test_blocks_of_fig5_and_a_joined_network(block_corpus):
    assert _blocks(load_fixture("fig5")) == [0b011, 0b100]
    joined = block_corpus[-1]
    sizes = sorted(mask.bit_count() for mask in _blocks(joined))
    assert sizes == [1, 3, 3, 4, 4] and len(joined.edges) == 15
    # THREE_PATHS: the u, v and w paths, then the direct edge
    assert _blocks(block_corpus[-2]) == [0b11, 0b1100, 0b110000, 0b1000000]


def _block_value_cases(block_corpus):
    """(network, reports): fig5; random_network(s, 7, 9) for s = 1..60 with
    truthful reports, reports mixing 1/3 and 2/7, and the same with every
    third edge at 0; THREE_PATHS; and the joined layered DAGs."""
    cases = []
    for seed in range(1, 61):
        net = random_network(seed, 7, 9)
        mixed = {eid: Fraction(1, 3) if k % 2 else Fraction(2, 7) for k, eid in enumerate(net.edge_ids)}
        zeroed = {eid: Fraction(0) if k % 3 == 0 else q for k, (eid, q) in enumerate(mixed.items())}
        cases += [(net, None), (net, mixed), (net, zeroed)]
    return [(block_corpus[0], None)] + cases + [(net, None) for net in block_corpus[-2:]]


def test_block_sums_equal_whole_graph_values(block_corpus):
    """Both tables: max flows per block coalition, and the cut table pricing
    each block coalition against its own block's parts of the cuts."""
    multi = 0
    for net, reports in _block_value_cases(block_corpus):
        cache = CharacteristicCache(net, reports)
        by_cuts = CharacteristicCache(net, reports, method="cuts")
        multi += len(_blocks(net)) > 1
        for mask in range(1 << cache.n):
            whole = coalition_value(net, reports, members_of(net, mask))
            assert cache.value_scaled(mask) == whole * cache.scale, (net, reports, mask)
            assert by_cuts.value_scaled(mask) == whole * cache.scale, (net, reports, mask)
    assert multi > 100


def test_cut_table_keeps_each_blocks_own_cuts(block_corpus):
    """On the joined layered DAGs the whole graph has the product of the
    block families as its cuts, but a block's coalitions are priced against
    that block's own minimal cuts only."""
    net = block_corpus[-1]
    table = CharacteristicCache(net, method="cuts")
    whole = len(enumerate_minimal_cuts(net).cuts)
    for block in _blocks(net):
        others = {eid: 0 for k, eid in enumerate(net.edge_ids) if not block >> k & 1}
        own = enumerate_minimal_cuts(net, others).cuts
        first = (block & -block).bit_length() - 1
        assert len(table._cuts_of_edge[first]) == len(own) < whole


def test_bounded_values_hold_in_any_order(block_corpus, mixed_report_corpus, augment_calls):
    """Masks read in descending or shuffled order find sub-coalitions
    missing from the table, so the bounds pin fewer values and the max flow
    runs for the rest; every value still equals the whole-graph
    `coalition_value`.  Networks of more than 8 edges read 40 random
    masks."""
    rng = random.Random(15)
    flows = {"ascending": 0, "descending": 0, "shuffled": 0}
    for net, reports in [(net, None) for net in block_corpus] + mixed_report_corpus:
        n = len(net.edges)
        masks = list(range(1 << n)) if n <= 8 else rng.sample(range(1 << n), 40)
        expected = {mask: coalition_value(net, reports, members_of(net, mask)) for mask in masks}
        shuffled = rng.sample(masks, len(masks))
        for order, read in (("ascending", sorted(masks)), ("descending", sorted(masks, reverse=True)), ("shuffled", shuffled)):
            cache = CharacteristicCache(net, reports)
            before = len(augment_calls)
            for mask in read:
                assert cache.value(mask) == expected[mask], (net, reports, order, mask)
            if n <= 8:
                flows[order] += len(augment_calls) - before
    assert flows["ascending"] < flows["shuffled"] < flows["descending"]


def test_populate_fills_each_block_once(compute_calls, augment_calls):
    cache = CharacteristicCache(load_fixture("fig5")).populate()
    # blocks {e1, e2} and {e3}: 3 + 1 coalitions, not 2^3 - 1; {e1} has no
    # sink edge and {e2} no source edge, so only {e1, e2} and {e3} run a
    # max flow
    assert len(compute_calls) == 4 and len(cache) == 5
    assert len(augment_calls) == 2
    assert [cache.value(mask) for mask in range(8)] == [0, 0, 0, 1, 1, 1, 1, 2]
    assert len(compute_calls) == 4 and len(augment_calls) == 2


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=5_000))
def test_cut_method_matches_maxflow_method(seed):
    net = random_network(seed)
    by_flow = CharacteristicCache(net, method="maxflow").populate()
    by_cuts = CharacteristicCache(net, method="cuts").populate()
    for mask in range(1 << by_flow.n):
        assert by_flow.value(mask) == by_cuts.value(mask)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=5_000), st.integers(min_value=0, max_value=255))
def test_cache_monotone(seed, raw):
    net = random_network(seed)
    cache = CharacteristicCache(net, method="cuts")
    full = (1 << cache.n) - 1
    mask = raw & full
    assert cache.value(mask) <= cache.value(full)
    for i in range(cache.n):
        assert cache.value(mask & ~(1 << i)) <= cache.value(mask | (1 << i))


def test_size_guard():
    with pytest.raises(SizeGuardError, match="exceeds the guard"):
        guard_size("test enumeration", 25, default_limit=20)
    guard_size("test enumeration", 20, default_limit=20)


def test_size_guard_env_override(monkeypatch):
    monkeypatch.setenv("FLOWMECH_MAX_EDGES", "30")
    guard_size("test enumeration", 25, default_limit=20)
    monkeypatch.setenv("FLOWMECH_MAX_EDGES", "10")
    with pytest.raises(SizeGuardError):
        guard_size("test enumeration", 12, default_limit=20)


def test_coalition_table_guards_shapley_and_the_core(monkeypatch):
    """The coalition table's guard is the one that stops the Shapley
    subset sum and the core scans: they build the table first."""
    monkeypatch.delenv("FLOWMECH_MAX_EDGES", raising=False)
    net = parse_network("".join(f"edge e{k} s t 1\n" for k in range(1, 22)))
    calls = [
        lambda: shapley(net),
        lambda: core_check(net, None, net.caps()),
        lambda: core_bounds(net, None, "e1"),
    ]
    for call in calls:
        with pytest.raises(SizeGuardError, match="^coalition table: size 21 exceeds the guard of 20"):
            call()
