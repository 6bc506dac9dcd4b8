import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowmech import (
    CapLattice,
    ConstantClaim,
    Relation,
    classify_complementarity,
    load_fixture,
    max_flow,
    parse_network,
    probe_constant_relation,
    random_network,
    structural_pattern,
)
from conftest import STRUCTURAL_RELATION, classify_by_grid_reference, difference_quotient


def test_quotient_parallel_pair_vanishes():
    net = parse_network("edge a s t 1\nedge b s t 1\n")
    for x, y in [(0, 0), (1, 2), (Fraction(1, 2), Fraction(3, 2))]:
        assert difference_quotient(net, "a", "b", x, y, 1, 1) == 0


def test_quotient_series_pair():
    net = parse_network("edge a s m 1\nedge b m t 1\n")
    assert difference_quotient(net, "a", "b", 0, 0, 1, 1) == 1


def test_quotient_diverging_pair_behind_bottleneck():
    net = load_fixture("diverge")
    assert difference_quotient(net, "e2", "e3", 0, 0, 1, 1) == -1


def test_classify_series_complementary():
    verdict = classify_complementarity(load_fixture("series"), "e1", "e2")
    assert verdict.relation is Relation.COMPLEMENTARY
    assert verdict.pattern == "series"
    assert any(q > 0 for *_ignored, q in verdict.probes)


def test_classify_parallel_substitutable():
    verdict = classify_complementarity(load_fixture("fig3a"), "e1", "e2")
    assert verdict.relation is Relation.SUBSTITUTABLE
    assert verdict.pattern == "parallel"


@pytest.mark.parametrize("pair", [("e1", "zz"), ("zz", "e1")])
def test_classify_names_an_unknown_edge(pair):
    with pytest.raises(KeyError) as caught:
        classify_complementarity(load_fixture("fig1"), *pair)
    assert caught.value.args == ("unknown edge id 'zz'",)


def test_classify_disjoint_paths_degenerate():
    net = parse_network(
        "edge a s A 1\nedge a2 A t 1\nedge b s B 1\nedge b2 B t 1\n"
    )
    verdict = classify_complementarity(net, "a", "b2")
    assert verdict.relation is Relation.DEGENERATE
    assert all(q == 0 for *_ignored, q in verdict.probes)


def test_structural_patterns():
    series = load_fixture("series")
    assert structural_pattern(series, "e1", "e2") == "series"
    assert structural_pattern(series, "e2", "e1") == "series"
    assert structural_pattern(series, "e1", "e3") == "disjoint-terminal"
    assert structural_pattern(load_fixture("fig3a"), "e1", "e2") == "parallel"
    assert structural_pattern(load_fixture("diverge"), "e2", "e3") == "common-tail"
    assert structural_pattern(load_fixture("converge"), "e3", "e4") == "common-head"
    # a shared node alone is not a series pattern when the middle node branches
    assert structural_pattern(load_fixture("fig1"), "e1", "e3") is None


def test_probe_constancy_supported_on_patterns():
    cases = [
        ("series", ("e1", "e2"), Relation.COMPLEMENTARY),
        ("series", ("e1", "e3"), Relation.COMPLEMENTARY),
        ("fig3a", ("e1", "e2"), Relation.SUBSTITUTABLE),
        ("diverge", ("e2", "e3"), Relation.SUBSTITUTABLE),
        ("converge", ("e3", "e4"), Relation.SUBSTITUTABLE),
    ]
    for name, (i, j), expected in cases:
        verdict = probe_constant_relation(load_fixture(name), i, j, sample_count=25, seed=5)
        assert verdict.constant_claim.status == "supported", (name, i, j)
        assert verdict.relation is expected, (name, i, j)
        assert STRUCTURAL_RELATION[verdict.pattern] is expected


def test_probe_is_deterministic():
    net = load_fixture("fig1")
    a = probe_constant_relation(net, "e1", "e4", 10, seed=42)
    b = probe_constant_relation(net, "e1", "e4", 10, seed=42)
    assert a == b


def test_probe_diamond_cross_pair_recorded():
    # source-in to sink-out pair across the diamond: a verdict is recorded
    # either way; with these cut shapes the samples all agree
    verdict = probe_constant_relation(load_fixture("fig1"), "e1", "e4", 40, seed=11)
    assert verdict.constant_claim.status in ("supported", "refuted")
    assert len(verdict.sample_relations) == 40


def test_probe_verdict_follows_from_its_samples(deep_corpus):
    """On every edge pair of the deep DAGs: each recorded sample is the
    classification of its configuration (the pair's own edges at their true
    capacities), and the claim, relation, witnesses, probes and pattern all
    follow from the list of samples.  Some pairs change sign between
    configurations, so the refuted branch runs too."""
    signs = (Relation.COMPLEMENTARY, Relation.SUBSTITUTABLE)
    refuted = 0
    for net in deep_corpus:
        for i, j in itertools.combinations(net.edge_ids, 2):
            verdict = probe_constant_relation(net, i, j, 6, seed=0)
            configs = [dict(config) for config in verdict.sample_configs]
            samples = [classify_complementarity(net, i, j, config) for config in configs]
            assert verdict.sample_relations == tuple(s.relation for s in samples)
            assert verdict.probes == samples[0].probes
            assert verdict.pattern == structural_pattern(net, i, j)
            assert all(set(config) == set(net.edge_ids) - {i, j} for config in configs)
            firsts = {}
            for config, sample in zip(configs, samples):
                if sample.relation in signs:
                    firsts.setdefault(sample.relation, config)
            if len(firsts) == 2:
                refuted += 1
                assert verdict.constant_claim.status == "refuted"
                assert verdict.relation is Relation.DEGENERATE
                assert list(verdict.constant_claim.witness.items()) == [
                    ("complementary-at", firsts[Relation.COMPLEMENTARY]),
                    ("substitutable-at", firsts[Relation.SUBSTITUTABLE]),
                ]
            else:
                assert verdict.constant_claim == ConstantClaim("supported")
                assert verdict.relation is next(iter(firsts), Relation.DEGENERATE)
    assert refuted


def assert_agrees_with_grid(net, i, j, rest=None):
    """The grid never shows both signs (the oracle raises if it does), and
    wherever its sign is nonzero the closed form gives the same relation."""
    grid = classify_by_grid_reference(net, i, j, rest)
    if grid is not Relation.DEGENERATE:
        assert classify_complementarity(net, i, j, rest).relation is grid, (i, j, rest)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=5_000),
    st.integers(min_value=0, max_value=7),
    st.integers(min_value=0, max_value=7),
)
def test_dichotomy_on_random_instances(seed, a, b):
    """At the truthful configuration a pair never shows quotients of both
    signs on the reference grid, and the closed form agrees with every
    nonzero grid sign."""
    net = random_network(seed)
    n = len(net.edges)
    if n < 2:
        return
    i, j = net.edge_ids[a % n], net.edge_ids[b % n]
    if i == j:
        return
    assert_agrees_with_grid(net, i, j)


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=0, max_value=5_000), st.integers(min_value=0, max_value=2**30))
def test_closed_form_matches_grid_on_sampled_configurations(seed, draw_seed):
    """Every pair of a random network, each under a configuration of the
    other capacities drawn from the `CapLattice` the sampler uses."""
    net = random_network(seed)
    lattice = CapLattice(numerator_max=16)
    rng = random.Random(draw_seed)
    for a, i in enumerate(net.edge_ids):
        for j in net.edge_ids[a + 1:]:
            rest = {eid: lattice.draw(rng) for eid in net.edge_ids if eid not in (i, j)}
            assert_agrees_with_grid(net, i, j, rest)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=2_000))
def test_pattern_label_never_contradicts_samples(seed):
    """The structural fast path must agree with sampling: a pattern labelled
    complementary may never sample strictly substitutable, and vice versa."""
    net = random_network(seed, max_nodes=5, max_edges=6)
    n = len(net.edges)
    for a in range(n):
        for b in range(a + 1, n):
            i, j = net.edge_ids[a], net.edge_ids[b]
            pattern = structural_pattern(net, i, j)
            if pattern is None:
                continue
            verdict = probe_constant_relation(net, i, j, sample_count=4, seed=seed)
            expected = STRUCTURAL_RELATION[pattern]
            assert verdict.constant_claim.status == "supported"
            assert verdict.relation in (expected, Relation.DEGENERATE)


#: random_network(s, 7, 9) seeds whose first and last edge the reference
#: probe grid labels degenerate although the four-corner second difference
#: is not 0: the grid's levels miss the kink of the flow function.
GRID_FAULT_SEEDS = (4, 138, 181, 418, 444, 561, 777, 840, 981)


@pytest.mark.parametrize("seed", GRID_FAULT_SEEDS)
def test_classification_matches_four_corner_sign(seed):
    net = random_network(seed, max_nodes=7, max_edges=9)
    i, j = net.edge_ids[0], net.edge_ids[-1]
    caps = net.caps()
    big = 1 + sum(caps.values())

    def flow(x, y):
        return max_flow(net, {**caps, i: x, j: y}).value

    second = flow(big, big) + flow(0, 0) - flow(0, big) - flow(big, 0)
    expected = (
        Relation.COMPLEMENTARY if second > 0
        else Relation.SUBSTITUTABLE if second < 0
        else Relation.DEGENERATE
    )
    assert classify_complementarity(net, i, j).relation == expected


def test_corner_flows_match_max_flow_and_scale_once(monkeypatch):
    """The four corners, all run by `maxflow._corner_flows`, use the one
    scale of the resolved reports: each corner flow equals the public max
    flow, and the weights are scaled once per classification.  One corner
    runs from zero flow; each other one starts from a flow feasible under
    its own weights."""
    import flowmech.complementarity as comp
    import flowmech.maxflow as maxflow

    scales, corners = [], []
    scaled_weights, augment = comp.scaled_weights, maxflow._augment

    def counting(net, caps):
        scale, weights = scaled_weights(net, caps)
        scales.append(scale)
        return scale, weights

    def recording(net, weights, start=None):
        feasible = start is None or all(
            fwd >= 0 and rev >= 0 and fwd + rev == w for fwd, rev, w in zip(start[1][0::2], start[1][1::2], weights)
        )
        value, residual = augment(net, weights, start)
        corners.append((list(weights), value, start is None, feasible))
        return value, residual

    monkeypatch.setattr(comp, "scaled_weights", counting)
    monkeypatch.setattr(maxflow, "_augment", recording)
    for seed in range(1, 31):
        net = random_network(seed, 6, 9)
        if len(net.edges) < 2:
            continue
        i, j = net.edge_ids[0], net.edge_ids[-1]
        rest = {eid: Fraction(k % 4 + 1, (1, 3, 7)[k % 3]) for k, eid in enumerate(net.edge_ids)}
        scales.clear()
        corners.clear()
        big = comp.classify_complementarity(net, i, j, rest).probes[0][2]
        assert len(scales) == 1
        # a copy: the max_flow calls below are recorded too
        recorded = list(corners)
        assert len(recorded) == 4
        assert sum(cold for _, _, cold, _ in recorded) == 1
        assert all(feasible for _, _, _, feasible in recorded)
        others = {eid: q for eid, q in rest.items() if eid not in (i, j)}
        seen = set()
        for weights, value, _, _ in recorded:
            caps = {eid: Fraction(w, scales[0]) for eid, w in zip(net.edge_ids, weights)}
            assert {eid: caps[eid] for eid in others} == others
            seen.add((caps[i], caps[j]))
            assert Fraction(value, scales[0]) == max_flow(net, caps).value, (seed, caps[i], caps[j])
        assert seen == {(0, 0), (0, big), (big, 0), (big, big)}
