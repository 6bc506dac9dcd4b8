"""Acceptance gate: the bundled worked examples and corpus-level property
runs that the package must reproduce exactly (rational equality, no
tolerances).  Each test prints one PASS line; run with `pytest -s` to see
them all."""

from fractions import Fraction as F

from flowmech import (
    best_deviation,
    check_cm,
    check_dsic,
    check_mp,
    check_sir,
    check_sp,
    core_bounds,
    core_bounds_all,
    core_select_nearest_cut,
    cross_effect_sweep,
    enumerate_minimal_cuts,
    load_fixture,
    max_flow,
    mc_allocate,
    mc_no_step_one,
    minimal_cuts_bruteforce,
    parallel_pairs,
    shapley,
    shapley_permutation_oracle,
    shapley_relation_probe,
)


def ok(n: int, message: str) -> None:
    print(f"ACCEPTANCE {n}: PASS - {message}")


def test_criterion_1_split_raises_shapley_payoff():
    fan = load_fixture("fig2a")
    assert shapley(fan)["e1"] == F(1, 30)
    split = shapley(load_fixture("fig2b"))
    assert split["e1_1"] == F(1, 42) and split["e1_2"] == F(1, 42)
    report = check_sp(fan, "shapley", None, "e1")
    assert report.verdict == "violation"
    assert report.witness["split"] == (F(1), F(1))
    assert report.witness["gain"] == F(2, 42) - F(1, 30)
    ok(1, "fan Shapley 1/30 vs 1/42+1/42; split violation found with exact gain")


def test_criterion_2_merge_raises_shapley_payoff():
    pair = load_fixture("fig3a")
    alloc = shapley(pair)
    assert alloc["e1"] == F(1, 6) and alloc["e2"] == F(1, 6)
    assert shapley(load_fixture("fig3b"))["e1+e2"] == F(1, 2)
    report = check_mp(pair, "shapley", None, "e1", "e2")
    assert report.verdict == "violation"
    assert report.witness["gain"] == F(1, 2) - F(1, 3)
    ok(2, "parallel pair 1/6+1/6 merges into 1/2; merge violation of size 1/6")


def test_criterion_3_shapley_fails_and_mc_passes_cross_monotonicity():
    dia = load_fixture("fig4")
    step = {"e1": F(3, 5)}
    assert max_flow(dia).value == 1
    assert max_flow(dia, step).value == F(11, 10)
    # pin the exact payoffs through the independent permutation oracle
    base_oracle = shapley_permutation_oracle(dia)
    bumped_oracle = shapley_permutation_oracle(dia, step)
    assert base_oracle["e2"] == F(1, 3)
    assert bumped_oracle["e2"] == F(19, 60)
    assert bumped_oracle["e2"] < base_oracle["e2"]
    assert shapley(dia).payoffs == base_oracle.payoffs
    assert shapley(dia, step).payoffs == bumped_oracle.payoffs
    report = check_cm(dia, "shapley", None, "e1", increase_grid=[F(3, 5)])
    assert report.verdict == "violation"
    mc_base = mc_allocate(dia)
    mc_bumped = mc_allocate(dia, step)
    for eid in ("e2", "e3", "e4"):
        assert mc_bumped[eid] >= mc_base[eid]
    assert check_cm(dia, "mc", None, "e1", increase_grid=[F(3, 5)]).verdict == "pass"
    ok(3, "flow 1 -> 11/10 while Shapley(e2) drops 1/3 -> 19/60; cut mechanism never drops")


def test_criterion_4_core_selection_punishes_honesty():
    net = load_fixture("fig1")
    assert core_bounds_all(net) == {
        "e1": (F(0), F(0)),
        "e2": (F(0), F(0)),
        "e3": (F(1), F(1)),
        "e4": (F(1), F(1)),
    }
    assert core_select_nearest_cut(net)["e1"] == 0
    sir = check_sir(net, "core-select")
    assert sir.verdict == "violation" and sir.witness["player"] == "e1"
    witness = best_deviation(net, "core-select", "e1")
    assert witness.best_report == 1
    assert witness.gain >= 1
    for mechanism in ("mc", "shapley"):
        assert best_deviation(net, mechanism, "e1").gain == 0
    ok(4, "unique core (0,0,1,1) pays the honest player nothing; under-reporting to 1 gains 1")


def test_criterion_5_stand_alone_step_is_necessary():
    chain = load_fixture("fig5")
    assert mc_no_step_one(chain)["e3"] == F(5, 6)
    assert mc_allocate(chain)["e3"] == 1
    assert check_sir(chain, "mc").verdict == "pass"
    ok(5, "skipping the stand-alone step pays the direct edge 5/6 < 1; the real mechanism pays 1")


def test_criterion_6_no_core_selection_is_cross_monotone():
    nine = load_fixture("fig9")
    assert core_bounds(nine, None, "e1") == (F(0), F(1))
    assert core_bounds_all(nine, {"e1": 0}) == {
        "e1": (F(0), F(0)),
        "e2": (F(1), F(1)),
        "e3": (F(0), F(0)),
        "e4": (F(0), F(0)),
    }
    report = check_cm(nine, "core-select", {"e1": 0}, "e1", increase_grid=[1])
    assert report.verdict == "violation"
    assert report.witness["hurt_player"] == "e2"
    assert report.witness["payoff_before"] == 1 and report.witness["payoff_after"] == 0
    ok(6, "core interval [0,1] collapses to (0,1,0,0) at zero; the 0 -> 1 step drops a payoff")


def test_criterion_7_cut_enumeration_matches_oracle(all_fixtures, cut_corpus):
    instances = list(all_fixtures.values()) + cut_corpus
    for net in instances:
        fast = enumerate_minimal_cuts(net)
        slow = minimal_cuts_bruteforce(net)
        assert set(fast.cuts) == set(slow.cuts)
        assert fast.flow_value == slow.flow_value
        assert min(fast.cut_capacities) == max_flow(net).value
    ok(7, f"cut families match the brute-force oracle on {len(instances)} instances, duality exact")


def test_criterion_8_cross_effect_cases():
    dia = load_fixture("fig1")
    reports = {"e2": F(1, 2)}
    independent = cross_effect_sweep(dia, reports, "e1", "e3", points_per_interval=8)
    assert independent.verdict == "pass"
    assert independent.trace.context["case"] == "independent"
    assert independent.trace.context["critical_value"] == F(3, 2)
    inclusive = cross_effect_sweep(dia, reports, "e1", "e2", points_per_interval=8)
    assert inclusive.verdict == "pass"
    assert inclusive.trace.context["case"] == "inclusive"
    neither = cross_effect_sweep(load_fixture("neither"), None, "e2", "e4", points_per_interval=8)
    assert neither.verdict == "pass"
    assert neither.trace.context["case"] == "neither"
    values = neither.trace.values
    assert all(a < b for a, b in zip(values[:8], values[1:8]))
    assert all(a > b for a, b in zip(values[8:], values[9:]))
    ok(8, "sweeps: independent rises then flattens at 3/2, inclusive flat then falls, other rises then falls")


def test_criterion_9_property_fuzz(fuzz_corpus):
    violations = []
    for net in fuzz_corpus:
        for report in (
            check_dsic(net, mc_allocate, grid_size=5),
            check_sir(net, mc_allocate),
            *(check_sp(net, mc_allocate, None, eid) for eid in net.edge_ids),
            *(check_mp(net, mc_allocate, None, ea, eb) for ea, eb in parallel_pairs(net)),
            *(check_cm(net, mc_allocate, None, eid) for eid in net.edge_ids),
            check_dsic(net, shapley, grid_size=5),
            check_sir(net, shapley),
        ):
            if report.verdict != "pass":
                violations.append((net, report))
    assert not violations, violations[:3]
    ok(9, f"zero violations across {len(fuzz_corpus)} seeded networks "
          "(cut mechanism: all five properties; Shapley: truthfulness and rationality)")


def test_criterion_10_comparative_statics_probes():
    cases = [
        ("series", ("e1", "e2"), "complementary", "series"),
        ("fig3a", ("e1", "e2"), "substitutable", "parallel"),
    ]
    for name, (i, j), relation, pattern in cases:
        report = shapley_relation_probe(load_fixture(name), i, j, sample_count=50, seed=9)
        assert report.verdict == "pass", (name, report.witness)
        assert report.witness["relation"] == relation
        assert report.witness["pattern"] == pattern
        assert report.witness["samples"] == 50
    ok(10, "Shapley payoffs move with the partner's report as the pair relation predicts, 50 samples each")
