from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowmech import (
    CharacteristicCache,
    ReportProfile,
    SizeGuardError,
    load_fixture,
    mask_of,
    members_of,
    random_network,
)
from flowmech.guards import guard_size


def test_build_cache_small_graph():
    cache = CharacteristicCache(load_fixture("fig3a")).populate()
    assert len(cache) == 8
    assert cache.value(0) == 0
    assert cache.value((1 << cache.n) - 1) == 1


def test_cache_examples():
    net = load_fixture("fig1")
    cache = CharacteristicCache(net)
    assert cache.value_of(["e2", "e3", "e4"]) == 1
    assert cache.value_of([]) == 0
    assert cache.value_of(net.edge_ids) == 2


def test_mask_helpers():
    order = ("e1", "e2", "e3")
    assert mask_of(order, ["e1", "e3"]) == 0b101
    assert members_of(order, 0b101) == {"e1", "e3"}
    with pytest.raises(KeyError):
        mask_of(order, ["nope"])


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


def test_report_profile_invariants():
    net = load_fixture("fig1")
    profile = ReportProfile.truthful(net)
    assert profile.reported == net.caps()
    clipped = ReportProfile.from_overrides(net, {"e1": 1})
    assert clipped.reported["e1"] == 1
    with pytest.raises(ValueError, match="lie in"):
        ReportProfile.from_overrides(net, {"e2": 5})
    with pytest.raises(ValueError):
        ReportProfile(truth={"e": Fraction(0)}, reported={"e": Fraction(0)})


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
