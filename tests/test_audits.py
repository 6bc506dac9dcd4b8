import hashlib
import random
from fractions import Fraction as F

import pytest

from flowmech import (
    AUDITS,
    MECHANISMS,
    Allocation,
    CapLattice,
    Edge,
    FlowNetwork,
    audit_all,
    best_deviation,
    check_cm,
    check_dsic,
    check_mp,
    check_sir,
    check_sp,
    classify_complementarity,
    classify_pair_structure,
    coalition_value,
    core_select_nearest_cut,
    critical_value,
    cross_effect_sweep,
    enumerate_minimal_cuts,
    fixture_names,
    load_fixture,
    max_flow,
    mc_allocate,
    mc_no_step_one,
    merge_parallel,
    parallel_pairs,
    parse_network,
    random_network,
    render_network,
    resolve_mechanism,
    resolve_reports,
    shapley_relation_probe,
    split_edge,
    validate,
)
from flowmech import audits, cuts, game, maxflow, mechanisms
from flowmech.audits import AuditReport, DeviationWitness, SweepTrace, default_increase_grid
from flowmech.cli import main as cli_main
from flowmech.complementarity import ComplementarityVerdict, ConstantClaim, Relation
from flowmech.game import CharacteristicCache
from flowmech.guards import SizeGuardError, guard_size
from flowmech.mechanisms import CoreSelectSweep, McSweep, ShapleySweep, shapley
from flowmech.network import scaled_weights
from conftest import (
    AUDIT_DEEP_SHAPES,
    assert_sweep_is_mc_allocate,
    best_deviation_fraction_reference,
    check_cm_fraction_reference,
    check_mp_fraction_reference,
    check_sp_fraction_reference,
    corpus,
    critical_value_three_flows,
    deep_instances,
    load_benchmark_generator,
    mixed_under_reports,
    parallel_pairs_reference,
    sweep_payoff,
    sweep_payoffs,
)


# ---------------------------------------------------------------------------
# Deviation search


def test_core_select_rewards_under_reporting():
    net = load_fixture("fig1")
    witness = best_deviation(net, "core-select", "e1", others_reports={"e2": 1, "e3": 1, "e4": 1})
    assert witness.truthful_payoff == 0
    assert witness.best_report == 1
    assert witness.best_payoff == 1
    assert witness.gain == 1


def test_mc_and_shapley_gain_nothing_on_the_same_instance():
    net = load_fixture("fig1")
    for mechanism in ("mc", "shapley"):
        witness = best_deviation(net, mechanism, "e1")
        assert witness.gain == 0, mechanism


def test_deviation_gain_never_negative():
    net = load_fixture("fig4")
    for mechanism in ("mc", "shapley", "core-select"):
        for eid in net.edge_ids:
            assert best_deviation(net, mechanism, eid).gain >= 0


def test_check_dsic_flags_core_select():
    report = check_dsic(load_fixture("fig1"), "core-select")
    assert report.verdict == "violation"
    assert report.witness["player"] == "e1"


# ---------------------------------------------------------------------------
# mc audits through one-report sweeps


def _per_point_mc(net, reports=None):
    """mc_allocate behind a name of its own: the audits call it once per
    point, as any custom mechanism."""
    return mc_allocate(net, reports)


def _mc_audits(net, mech, reports):
    """Every player's best deviation, every edge's sp report on the default
    grid and on a split into sevenths, every parallel pair's mp report and
    every edge's cm report, without the mechanism's name."""
    others = resolve_reports(net, reports)
    deviations = [best_deviation(net, mech, eid, others_reports=others, grid_size=4) for eid in net.edge_ids]
    checks = [check_sp(net, mech, reports, eid) for eid in net.edge_ids]
    sevenths = {eid: [(q / 7, 6 * q / 7)] for eid, q in others.items()}
    checks += [check_sp(net, mech, reports, eid, sevenths[eid]) for eid in net.edge_ids]
    checks += [check_mp(net, mech, reports, a, b) for a, b in parallel_pairs(net)]
    checks += [check_cm(net, mech, reports, eid) for eid in net.edge_ids]
    return deviations, [(r.verdict, r.witness, r.trace) for r in checks]


def test_mc_audits_agree_with_one_call_per_point(deep_corpus):
    """The deviation search, the sp, mp and cm audits and the cross-effect
    sweep give the same witnesses, verdicts and traces through the sweep as
    with one mechanism call per point, split and merge, also with zero
    reports, split and merged networks and direct edges."""
    cases = [(net, None) for net in corpus(40, max_nodes=7, max_edges=9)]
    cases += [case for net in deep_corpus[:6] for case in deep_instances(net)]
    for net, reports in cases:
        assert _mc_audits(net, "mc", reports) == _mc_audits(net, _per_point_mc, reports)
        for a, b in zip(net.edge_ids, net.edge_ids[1:]):
            swept = cross_effect_sweep(net, reports, a, b, points_per_interval=3)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(audits, "mc_allocate", _per_point_mc)
                assert cross_effect_sweep(net, reports, a, b, points_per_interval=3) == swept


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_mc_audits_run_no_step_two_per_grid_point(monkeypatch):
    """check_dsic reads each candidate's payoff from the player's sweep,
    a judged cm point its allocation, and check_sp and check_mp their
    split and merged payoffs, so step two's cut family is compiled once
    for the profile the sweeps view and once for each base allocation,
    which the sp and mp audits and a cm audit that judges a point make.
    A cm audit that judges nothing reads its flows off the edge's view and
    allocates nothing.  A wrapper of mc_allocate that is not bound to it
    is called per point."""
    compiles = _count_calls(monkeypatch, mechanisms, "mc_family")
    points = _count_calls(monkeypatch, McSweep, "scaled_payoff")
    net = load_fixture("fig4")
    assert check_dsic(net, "mc").verdict == "pass"
    assert len(compiles) == 1 and len(points) > 2 * len(net.edge_ids)
    report = check_cm(net, "mc", None, "e1", increase_grid=[F(3, 4), 1, F(3, 2), 3])
    assert report.trace.context["judged"] == (True, True, True, False)
    assert len(compiles) == 1 + 2
    # a cm audit that judges nothing builds the one view its flows come
    # from, and neither allocates the base nor reads the view's allocation
    sweeps = _count_calls(monkeypatch, McSweep, "__init__")
    allocations = _count_calls(monkeypatch, McSweep, "scaled_allocation")
    report = check_cm(load_fixture("fig1"), "mc", None, "e1")
    assert report.trace.context["judged"] == (False,) * 6
    assert len(sweeps) == 1 and allocations == [] and len(compiles) == 3 + 1
    # the split and merge audits read the sweep; step two runs for their
    # base and their profile's family
    splits = _count_calls(monkeypatch, McSweep, "scaled_split_payoff")
    assert check_sp(net, "mc", None, "e1").verdict == "pass"
    assert len(compiles) == 4 + 2 and len(splits) == 4
    assert check_mp(net, "mc", None, "e1", "e2").verdict == "pass"
    assert len(compiles) == 6 + 2
    # a wrapper of mc_allocate not bound to it is called per split and merge
    calls = []

    def wrapped(net, reports=None):
        calls.append(net)
        return mc_allocate(net, reports)

    assert check_sp(net, wrapped, None, "e1").verdict == check_mp(net, wrapped, None, "e1", "e2").verdict == "pass"
    assert len(calls) == 1 + 4 + 1 + 1 and len(sweeps) == 1 + 2


def test_a_wrapper_bound_to_mc_allocate_takes_the_sweep(monkeypatch):
    """A tracer that rebinds `mechanisms.mc_allocate` and the registry entry
    to one wrapper measures the sweep, not a call per point; the same
    wrapper passed without being bound is called per point."""
    calls = []

    def wrapped(net, reports=None):
        calls.append(reports)
        return mc_allocate(net, reports)

    net = load_fixture("fig4")
    want = check_dsic(net, "mc"), check_cm(net, "mc", None, "e1"), cross_effect_sweep(net, None, "e1", "e3")
    assert len(calls) == 0
    unbound = check_dsic(net, wrapped)
    assert len(calls) > len(net.edge_ids) and unbound.witness == want[0].witness
    calls.clear()
    monkeypatch.setattr(mechanisms, "mc_allocate", wrapped)
    monkeypatch.setitem(mechanisms.MECHANISMS, "mc", wrapped)
    monkeypatch.setattr(audits, "mc_allocate", wrapped)
    points = _count_calls(monkeypatch, McSweep, "__init__")
    got = check_dsic(net, "mc"), check_cm(net, "mc", None, "e1"), cross_effect_sweep(net, None, "e1", "e3")
    assert got == want
    assert len(points) == len(net.edge_ids) + 2
    assert len(calls) == 1  # the cm audit's base profile


def test_audit_all_keeps_mc_dsic_on_its_sweep(monkeypatch):
    """`audit_all` hands check_dsic its own base profile, which check_dsic
    keeps instead of wrapping it again, so every deviation candidate is
    read from the player's sweep, a view of the profile's one family."""
    compiles = _count_calls(monkeypatch, mechanisms, "mc_family")
    monkeypatch.setattr(audits, "AUDITS", {"dsic": AUDITS["dsic"]})
    [report] = audit_all(load_fixture("fig4"), "mc")
    assert report.verdict == "pass" and len(compiles) == 1  # the profile's family


def _mixed_reports(net, seed):
    """The truthful reports, every report halved, and about 30 % of the
    reports at 0, drawn with the seed."""
    rng = random.Random(seed)
    return [None, {e.id: e.cap / 2 for e in net.edges}, {e.id: 0 for e in net.edges if rng.random() < 0.3}]


def test_mc_profile_views_are_mc_allocate_and_give_the_corner_flows(deep_corpus):
    """Every sweep an mc profile keeps is a view of the profile's step-two
    cut family and equals `mc_allocate` along the report, in its split
    payoffs and in its merged payoffs (`assert_sweep_is_mc_allocate`).  The
    profile's corner flows, read off the views, are the two max flows of
    `_corner_flows`, and its base flow is the max flow.  The cases include
    direct edges, parallel copies, and edges that are their arc's one
    positive copy and reported 0, whose sweeps compile the cuts with their
    arc allowed.  The family is over the profile's scale, the direct
    edges' denominators included: fig5's direct edge e3 at 1/3 sets it to
    3."""
    cases = [(net, reports) for s in range(1, 401) for net in [random_network(s, 7, 9)] for reports in _mixed_reports(net, s)]
    cases += [case for net in deep_corpus[:6] for case in deep_instances(net)]
    cases += [(load_fixture("fig5"), {"e3": F(1, 3)})]
    seen = {"corners": 0, "own cuts": 0, "direct": 0, "parallel": 0}
    for net, reports in cases:
        profile = audits._Profile.of(net, "mc", reports)
        caps = profile.caps
        assert profile.family[0] == profile.scaled[0]
        assert F(profile.base_flow, profile.scaled[0]) == max_flow(net, caps).value
        assert_sweep_is_mc_allocate(net, caps, profile.along)
        seen["parallel"] += bool(parallel_pairs(net))
        scale, weights = scaled_weights(net, caps)
        for eid in net.edge_ids:
            view = profile.along(eid)
            assert profile.along(eid) is view
            if net.is_terminal_edge(eid):
                seen["direct"] += 1
                continue
            _, flows, _ = maxflow._corner_flows(net, scale, weights, [net.position(eid)])
            assert profile.flows(eid) == tuple(flows) and profile.scaled[0] == scale, (net, caps, eid)
            seen["corners"] += 1
            seen["own cuts"] += view._cutsets is not profile.family[2]
    assert all(seen.values()), seen


# ---------------------------------------------------------------------------
# Shapley audits through one-report sweeps


def _per_point_shapley(net, reports=None):
    """shapley behind a name of its own: the audits call it once per point,
    split and merge, as any custom mechanism."""
    return shapley(net, reports)


def _shapley_audits(net, mech, reports):
    """Every player's best deviation and every sp, mp and cm report,
    without the mechanism's name."""
    others = resolve_reports(net, reports)
    deviations = [best_deviation(net, mech, eid, others_reports=others, grid_size=4) for eid in net.edge_ids]
    checks = [check_sp(net, mech, reports, eid) for eid in net.edge_ids]
    checks += [check_mp(net, mech, reports, a, b) for a, b in parallel_pairs(net)]
    checks += [check_cm(net, mech, reports, eid) for eid in net.edge_ids]
    return deviations, [(r.verdict, r.witness, r.trace) for r in checks]


def test_shapley_audits_agree_with_one_call_per_point(all_fixtures, deep_corpus):
    """The deviation search, the split, merge and cm audits and the
    relation probe give the same witnesses, verdicts and traces through
    the sweep as with one mechanism call per point, also below the truth,
    with zero reports and on split and merged networks."""
    cases = [(net, reports) for net in all_fixtures.values() for reports in (None, _under_reports(net))]
    cases += [(net, None) for net in corpus(30, max_nodes=7, max_edges=9)]
    cases += [case for net in deep_corpus[:4] for case in deep_instances(net)]
    verdicts = set()
    for net, reports in cases:
        got = _shapley_audits(net, "shapley", reports)
        assert got == _shapley_audits(net, _per_point_shapley, reports)
        verdicts.update(verdict for verdict, _, _ in got[1])
    assert verdicts == {"pass", "violation", "not-tested"}
    for name, (i, j) in [("series", ("e1", "e2")), ("fig3a", ("e1", "e2")), ("fig4", ("e1", "e3")), ("neither", ("e1", "e4"))]:
        net = all_fixtures[name]
        swept = shapley_relation_probe(net, i, j, sample_count=8, seed=5)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(audits, "shapley", _per_point_shapley)
            assert shapley_relation_probe(net, i, j, sample_count=8, seed=5) == swept


def test_shapley_audits_fill_only_the_tables_they_need(monkeypatch):
    """A truthful dsic, sp and mp run fills one coalition table, the base
    profile's, and calls shapley once, for the base allocation; a judged
    cm point adds the table with the edge at the proxy B; a cm audit that
    judges nothing builds no sweep and no table."""
    tables = _count_calls(monkeypatch, CharacteristicCache, "__init__")
    calls = _count_calls(monkeypatch, mechanisms, "shapley")
    monkeypatch.setitem(MECHANISMS, "shapley", mechanisms.shapley)
    net = load_fixture("fig4")
    caps = net.caps()
    base = audits._Profile(net, "shapley", caps)
    reports = [AUDITS[prop](net, base, caps, 6) for prop in ("dsic", "sp", "mp")]
    assert [[r.verdict for r in run] for run in reports] == [["pass"], ["pass", "pass", "violation", "violation"], ["pass", "violation"]]
    assert len(tables) == 1 and len(calls) == 1
    report = check_cm(net, "shapley", None, "e1", increase_grid=[F(3, 4), 1, F(3, 2), 3])
    assert report.trace.context["judged"] == (True, True, True, False)
    assert len(tables) == 3 and len(calls) == 2
    sweeps = _count_calls(monkeypatch, ShapleySweep, "__init__")
    report = check_cm(load_fixture("fig1"), "shapley", None, "e1")
    assert report.trace.context["judged"] == (False,) * 6
    assert sweeps == [] and len(tables) == 3 and len(calls) == 2


def test_a_wrapper_bound_to_shapley_takes_the_sweep(monkeypatch):
    """A tracer that rebinds `mechanisms.shapley` and the registry entry to
    one wrapper measures the sweep: the wrapper allocates only the base
    profile, and the relation probe, through `audits.shapley`, calls it
    not at all.  The same wrapper passed without being bound is called per
    point."""
    calls = []

    def wrapped(net, reports=None, cache=None):
        calls.append(reports)
        return shapley(net, reports, cache)

    net = load_fixture("fig4")
    want = audit_all(net, "shapley"), shapley_relation_probe(net, "e1", "e3", sample_count=5)
    unbound = audit_all(net, wrapped)
    assert len(calls) > len(net.edge_ids) and [r.witness for r in unbound] == [r.witness for r in want[0]]
    calls.clear()
    monkeypatch.setattr(mechanisms, "shapley", wrapped)
    monkeypatch.setitem(mechanisms.MECHANISMS, "shapley", wrapped)
    monkeypatch.setattr(audits, "shapley", wrapped)
    sweeps = _count_calls(monkeypatch, ShapleySweep, "__init__")
    assert (audit_all(net, "shapley"), shapley_relation_probe(net, "e1", "e3", sample_count=5)) == want
    assert len(calls) == 1 and len(sweeps) > len(net.edge_ids)


# ---------------------------------------------------------------------------
# core-select audits through one-report sweeps


def _per_point_core_select(net, reports=None):
    """core_select_nearest_cut behind a name of its own: the audits call it
    once per point, split and merge, as any custom mechanism."""
    return core_select_nearest_cut(net, reports)


def test_core_select_audits_agree_with_one_call_per_point(deep_corpus):
    """The deviation search and the sp, mp and cm audits give the same
    witnesses, verdicts and traces through the sweep as with one mechanism
    call per point, split and merge, also below the truth, with zero
    reports, on split and merged networks and with direct edges."""
    nets = corpus(40, max_nodes=7, max_edges=9)
    cases = [(net, reports) for net in nets for reports in (None, _under_reports(net))]
    cases += [case for net in deep_corpus[:6] for case in deep_instances(net)]
    verdicts, direct = set(), 0
    for net, reports in cases:
        got = _mc_audits(net, "core-select", reports)
        assert got == _mc_audits(net, _per_point_core_select, reports), (net, reports)
        verdicts.update(verdict for verdict, _, _ in got[1])
        direct += bool(net.terminal_edge_ids())
    assert verdicts == {"pass", "violation", "not-tested"} and direct > 0


def _count_max_flows(monkeypatch):
    """Every max flow, through each flowmech module's name for `_augment`."""
    calls = []
    original = maxflow._augment

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (maxflow, cuts, game, audits):
        monkeypatch.setattr(module, "_augment", counted)
    return calls


def test_core_select_split_and_merge_audits_run_one_max_flow(monkeypatch):
    """check_sp and check_mp read the split and merged payoffs off the
    base allocation, the one max flow they run."""
    net = load_fixture("fig4")
    flows = _count_max_flows(monkeypatch)
    sweeps = _count_calls(monkeypatch, CoreSelectSweep, "scaled_split_payoff")
    assert check_sp(net, "core-select", None, "e1").verdict == "pass"
    assert len(flows) == 1 and len(sweeps) == 4
    assert check_mp(net, "core-select", None, "e1", "e2").verdict == "pass"
    assert len(flows) == 2


def test_core_select_sweep_runs_no_max_flow_past_its_corners(monkeypatch, every_augment_call, deep_corpus):
    """Along one edge's report the sweep reads every nearest cut off its
    profile's two corner flows: past them it runs no max flow and no
    nearest cut, and its cut, allocation and payoff equal
    `core_select_nearest_cut`'s at every point.  It reads the profile's
    `sides` once, and not at all while only the base report is asked.  At
    r = cv, fig1's e1 has X0 below XB and its e3 XB below X0, so the meet
    is each of them once; fig5's e3 is a direct edge, in the cut exactly
    when its report is above 0."""
    nearest = _count_calls(monkeypatch, mechanisms, "min_cut_nearest_source")
    cases = deep_instances(deep_corpus[0]) + [(load_fixture("fig1"), None), (load_fixture("fig5"), None)]
    for net, reports in cases:
        profile = audits._Profile.of(net, "core-select", reports)
        caps, base = profile.caps, profile.allocation
        for eid in net.edge_ids:
            asked = []
            sweep = CoreSelectSweep(net, profile.scaled, eid, base, lambda e: asked.append(e) or profile.sides(e))
            assert sweep_payoffs(net, sweep, caps[eid]) == base.payoffs and sweep_payoff(sweep, caps[eid]) == base.payoffs[eid]
            assert asked == []
            points = {F(0), caps[eid] / 3, caps[eid] + 1, F(7, 3)}
            if not net.is_terminal_edge(eid):
                cv = critical_value(net, caps, eid)
                points |= {cv, cv / 2, 2 * cv}
            points = sorted(points)
            cuts_want = [cuts.min_cut_nearest_source(net, {**caps, eid: r}) for r in points]
            want = [core_select_nearest_cut(net, {**caps, eid: r}) for r in points]
            profile.flows(eid)
            nearest.clear()
            every_augment_call.clear()
            assert [sweep._cut(r.numerator, r.denominator) for r in points] == cuts_want, eid
            assert [sweep_payoffs(net, sweep, r) for r in points] == [w.payoffs for w in want], eid
            assert [sweep_payoff(sweep, r) for r in points] == [w.payoffs[eid] for w in want], eid
            assert nearest == [] and every_augment_call == []
            assert asked == ([] if net.is_terminal_edge(eid) else [eid])
            plain = profile.along(eid)
            assert [sweep_payoffs(net, plain, r) for r in points] == [w.payoffs for w in want], eid
    fig1 = audits._Profile.of(load_fixture("fig1"), "core-select", None)
    (_, low1, high1), (_, low3, high3) = fig1.sides("e1"), fig1.sides("e3")
    assert low1 < high1 and high3 < low3


def test_a_wrapper_bound_to_core_select_takes_the_sweep(monkeypatch):
    """A wrapper of core_select_nearest_cut passed as the mechanism stays
    on `_PerPoint` and is called once per point, split and merge; bound to
    `mechanisms.core_select_nearest_cut` and the registry entry, it
    allocates only the base profile."""
    calls = []

    def wrapped(net, reports=None):
        calls.append(reports)
        return core_select_nearest_cut(net, reports)

    nine = load_fixture("fig9")
    profile = audits._Profile.of(nine, wrapped, {"e1": 0})
    assert isinstance(profile.along("e1"), audits._PerPoint)
    assert check_cm(nine, profile, {"e1": 0}, "e1", increase_grid=[1]).verdict == "violation"
    assert len(calls) == 1 + 1
    calls.clear()
    net = load_fixture("fig4")
    assert check_sp(net, wrapped, None, "e1").verdict == check_mp(net, wrapped, None, "e1", "e2").verdict == "pass"
    assert len(calls) == 1 + 4 + 1 + 1
    calls.clear()
    monkeypatch.setattr(mechanisms, "core_select_nearest_cut", wrapped)
    monkeypatch.setitem(mechanisms.MECHANISMS, "core-select", wrapped)
    profile = audits._Profile.of(nine, "core-select", {"e1": 0})
    assert isinstance(profile.along("e1"), CoreSelectSweep)
    assert check_cm(nine, profile, {"e1": 0}, "e1", increase_grid=[1]).verdict == "violation"
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# Strong individual rationality


def test_sir_verdicts_on_the_diamond():
    net = load_fixture("fig1")
    bad = check_sir(net, "core-select")
    assert bad.verdict == "violation" and bad.witness["player"] == "e1"
    assert check_sir(net, "mc").verdict == "pass"
    assert check_sir(net, "shapley").verdict == "pass"


def test_sir_mc_chain():
    assert check_sir(load_fixture("fig5"), "mc").verdict == "pass"


def test_sir_stand_alone_values_in_closed_form():
    """check_sir takes a single edge's coalition value as its report when the
    edge runs from source to sink and as 0 otherwise; that is the max flow
    of the one-edge coalition, zero reports included."""
    direct = 0
    for seed in range(1, 121):
        net = random_network(seed, 6, 9)
        reports = {eid: 0 if k % 3 == seed % 3 else q for k, (eid, q) in enumerate(net.caps().items())}
        for e in net.edges:
            closed = reports[e.id] if net.is_terminal_edge(e.id) else 0
            assert coalition_value(net, reports, [e.id]) == closed, (seed, e.id)
            direct += net.is_terminal_edge(e.id)
    assert direct > 0
    report = check_sir(load_fixture("fig5"), mc_no_step_one)
    assert report.witness == {"player": "e3", "payoff": F(5, 6), "stand_alone": 1}


#: two disjoint two-edge source-sink paths
TWO_PATHS = "edge e1 s A 1\nedge e2 A t 1\nedge e3 s B 1\nedge e4 B t 1\n"


def test_sir_asks_a_positive_payoff_only_of_contributing_edges():
    """An edge contributes to some coalition only when it lies on a
    source-sink path of positively reported edges, so only such an edge
    must be paid more than 0.  With fig3a's bottleneck e3 at 0, the
    parallel edges behind it add nothing to any coalition; with e1 at 0,
    e2 is on no positive path of the two-path network, while e4 is."""
    fig3a = load_fixture("fig3a")
    assert [check_sir(fig3a, mech, {"e3": 0}).verdict for mech in ("mc", "shapley", "core-select")] == ["pass"] * 3
    two_paths = parse_network(TWO_PATHS)
    reports = {"e1": 0}
    assert [r.verdict for r in audit_all(two_paths, "mc", reports) if r.property == "sir"] == ["pass"]
    assert check_sir(two_paths, "shapley", reports).verdict == "pass"
    bad = check_sir(two_paths, "core-select", reports)
    assert bad.witness == {"player": "e4", "payoff": 0, "report": 1}


# ---------------------------------------------------------------------------
# Split and merge transformations


def test_split_fan_edge_reproduces_split_fixture():
    fan = load_fixture("fig2a")
    new_net, new_reports, (id_a, id_b) = split_edge(fan, None, "e1", 1, 1)
    assert new_net == load_fixture("fig2b")
    assert new_reports[id_a] == 1 and new_reports[id_b] == 1


def test_split_with_zero_part_keeps_flow():
    net = load_fixture("fig1")
    new_net, new_reports, _ = split_edge(net, None, "e1", 2, 0)
    assert max_flow(new_net, new_reports).value == max_flow(net).value


def test_split_preserves_cut_totals():
    net = load_fixture("fig1")
    before = sorted(enumerate_minimal_cuts(net).cut_capacities)
    new_net, new_reports, _ = split_edge(net, None, "e1", F(1, 2), F(3, 2))
    after = sorted(enumerate_minimal_cuts(new_net, new_reports).cut_capacities)
    assert before == after


def test_split_requires_matching_sum():
    with pytest.raises(ValueError, match="add up"):
        split_edge(load_fixture("fig1"), None, "e1", 1, 2)


def test_split_names_an_unknown_edge():
    with pytest.raises(KeyError) as caught:
        split_edge(load_fixture("fig1"), None, "zz", 1, 1)
    assert caught.value.args == ("unknown edge id 'zz'",)


def test_split_divides_truth_proportionally():
    net = load_fixture("fig1")
    new_net, _, (id_a, id_b) = split_edge(net, {"e1": 1}, "e1", F(1, 4), F(3, 4))
    assert new_net.edge(id_a).cap == F(1, 2)  # truth 2 split in the 1:3 ratio
    assert new_net.edge(id_b).cap == F(3, 2)


def test_merge_parallel_reproduces_merged_fixture():
    pair = load_fixture("fig3a")
    new_net, new_reports, merged_id = merge_parallel(pair, None, "e1", "e2")
    assert new_net == load_fixture("fig3b")
    assert new_reports[merged_id] == 2


def test_merge_then_split_restores_flow_and_cut_totals():
    net = load_fixture("fig1")
    merged_net, merged_reports, merged_id = merge_parallel(net, None, "e3", "e4")
    assert max_flow(merged_net, merged_reports).value == 2
    back_net, back_reports, _ = split_edge(merged_net, merged_reports, merged_id, 1, 1)
    assert max_flow(back_net, back_reports).value == max_flow(net).value
    assert sorted(enumerate_minimal_cuts(back_net, back_reports).cut_capacities) == sorted(
        enumerate_minimal_cuts(net).cut_capacities
    )


def test_merge_requires_parallel_edges():
    with pytest.raises(ValueError, match="not parallel"):
        merge_parallel(load_fixture("fig1"), None, "e1", "e3")


# ---------------------------------------------------------------------------
# Split-proofness / merge-proofness


def test_merge_rejects_the_same_edge_twice():
    net = load_fixture("fig1")
    with pytest.raises(ValueError, match="the two edges must differ"):
        merge_parallel(net, None, "e1", "e1")
    with pytest.raises(ValueError, match="the two edges must differ"):
        check_mp(net, "mc", None, "e1", "e1")


@pytest.mark.parametrize("mechanism", list(MECHANISMS))
def test_split_and_merge_audits_check_their_networks(mechanism):
    """A split grid whose parts miss the report, a successor or merged id
    that exists already, and a pair that is not parallel fail the same way
    whether the mechanism runs per network or reads a sweep."""
    net = load_fixture("fig1")
    with pytest.raises(ValueError, match="must add up"):
        check_sp(net, mechanism, None, "e1", split_grid=[(1, 1), (1, 2)])
    taken = net.replace_edge("e2", [Edge("e1_2", "s", "A", F(1))])
    with pytest.raises(ValueError, match="successor id 'e1_2' already exists"):
        check_sp(taken, mechanism, None, "e1")
    with pytest.raises(ValueError, match="not parallel"):
        check_mp(net, mechanism, None, "e1", "e3")
    taken = load_fixture("fig3a").replace_edge("e3", [Edge("e1+e2", "s", "A", F(1))])
    with pytest.raises(ValueError, match="merged id 'e1\\+e2' already exists"):
        check_mp(taken, mechanism, None, "e1", "e2")


def test_unknown_edge_ids_fail_before_the_mechanism_runs():
    calls = []

    def counting_mc(net, reports=None):
        calls.append(reports)
        return mc_allocate(net, reports)

    net = load_fixture("fig1")
    checks = [
        lambda: check_sp(net, counting_mc, None, "zz"),
        lambda: check_cm(net, counting_mc, None, "zz"),
        lambda: check_mp(net, counting_mc, None, "e1", "zz"),
        lambda: check_mp(net, counting_mc, None, "zz", "e1"),
        lambda: best_deviation(net, counting_mc, "zz"),
        *(lambda name=name: audits._Profile.of(net, name, None).along("zz") for name in MECHANISMS),
        *(lambda name=name: check_mp(net, name, None, "e1", "zz") for name in MECHANISMS),
        lambda: critical_value(net, None, "zz"),
        lambda: classify_pair_structure(net, None, "e1", "zz"),
        lambda: classify_pair_structure(net, None, "zz", "e1"),
        lambda: cross_effect_sweep(net, None, "zz", "e1"),
        lambda: cross_effect_sweep(net, None, "e1", "zz"),
        lambda: merge_parallel(net, None, "e1", "zz"),
        lambda: merge_parallel(net, None, "zz", "e1"),
    ]
    for check in checks:
        with pytest.raises(KeyError) as caught:
            check()
        assert caught.value.args == ("unknown edge id 'zz'",)
    assert calls == []


def _guard_with_a_bad_override():
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("FLOWMECH_MAX_EDGES", "ten")
        guard_size("coalition table", 3, default_limit=20)


_FIG1 = load_fixture("fig1")


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(
            lambda: resolve_mechanism("nope"),
            KeyError,
            "unknown mechanism 'nope'; choose from ['core-select', 'mc', 'shapley']",
            id="mechanism",
        ),
        pytest.param(
            lambda: coalition_value(_FIG1, None, ["zz"]), KeyError, "unknown edge ids in coalition: ['zz']", id="coalition"
        ),
        pytest.param(lambda: split_edge(_FIG1, None, "e1", -1, 3), ValueError, "split parts must be >= 0", id="split"),
        pytest.param(
            lambda: cross_effect_sweep(_FIG1, None, "e1", "e3", points_per_interval=1),
            ValueError,
            "points_per_interval must be >= 2",
            id="sweep-points",
        ),
        pytest.param(
            lambda: classify_complementarity(_FIG1, "e1", "e1"), ValueError, "the two edges must differ", id="relation"
        ),
        pytest.param(
            lambda: classify_pair_structure(_FIG1, None, "e1", "e1"),
            ValueError,
            "the two edges must differ",
            id="pair-structure",
        ),
        pytest.param(
            lambda: load_fixture("nope"),
            KeyError,
            f"unknown fixture 'nope'; available: {', '.join(fixture_names())}",
            id="fixture",
        ),
        pytest.param(
            _guard_with_a_bad_override,
            SizeGuardError,
            "FLOWMECH_MAX_EDGES must be an integer, got 'ten'",
            id="guard-override",
        ),
        pytest.param(
            lambda: best_deviation(split_edge(_FIG1, None, "e1", 0, 2)[0], "mc", "e1_1"),
            ValueError,
            "the player's true capacity must be > 0",
            id="zero-truth",
        ),
    ],
)
def test_library_refusals(call, error, message):
    """Each refusal names its fault; the last is a split part whose truth
    is 0, the one edge of capacity 0 a network can hold."""
    with pytest.raises(error) as caught:
        call()
    assert caught.value.args == (message,)


def test_shapley_split_violation_on_fan():
    report = check_sp(load_fixture("fig2a"), "shapley", None, "e1")
    assert report.verdict == "violation"
    assert report.witness["split"] == (F(1), F(1))
    assert report.witness["gain"] == F(2, 42) - F(1, 30)


def test_mc_split_proof_on_fan():
    assert check_sp(load_fixture("fig2a"), "mc", None, "e1").verdict == "pass"


def test_mc_split_proof_single_terminal_edge():
    from flowmech import parse_network

    net = parse_network("edge e s t 2\n")
    assert check_sp(net, "mc", None, "e").verdict == "pass"


@pytest.mark.parametrize("mechanism", ["mc", "shapley", "core-select"])
def test_sp_with_no_split_to_try_is_not_tested(mechanism):
    """An edge reported at 0 has only zero-part splits, and so has a grid
    made of zero parts alone: nothing is tested, so the audit may not pass.
    A grid with one usable point is tested as before."""
    net = load_fixture("fig1")
    expected = {"edge": "e1", "reason": "no split point with both parts > 0"}
    for reports, grid in [({"e1": 0}, None), (None, [(0, 2), (2, 0)]), ({"e1": 0}, [(0, 0)])]:
        report = check_sp(net, mechanism, reports, "e1", split_grid=grid)
        assert (report.verdict, report.witness, report.mechanism) == ("not-tested", expected, mechanism)
        assert not report.passed
    tested = check_sp(net, mechanism, None, "e1", split_grid=[(0, 2), (1, 1)])
    assert tested.verdict in ("pass", "violation")


@pytest.mark.parametrize("mechanism", ["mc", "shapley", "core-select"])
def test_sp_checks_the_whole_grid_before_any_point(mechanism):
    """A grid point whose parts miss the report, or that has a negative
    part, is refused wherever it stands in the grid, before any point is
    evaluated, with the message split_edge gives for the same point."""
    net = load_fixture("fig2a")
    for grid in ([(1, 1), (1, 5)], [(1, 5), (1, 1)]):
        with pytest.raises(ValueError, match="^split parts 1 \\+ 5 must add up to the report 2$"):
            check_sp(net, mechanism, None, "e1", split_grid=grid)
    for grid in ([(-1, 3)], [(1, 1), (-1, 3)], [(-1, 3), (1, 1)]):
        with pytest.raises(ValueError, match="^split parts must be >= 0$"):
            check_sp(net, mechanism, None, "e1", split_grid=grid)
    with pytest.raises(ValueError, match="^split parts must be >= 0$"):
        split_edge(net, None, "e1", -1, 3)


def test_shapley_merge_violation_on_parallel_pair():
    report = check_mp(load_fixture("fig3a"), "shapley", None, "e1", "e2")
    assert report.verdict == "violation"
    assert report.witness["gain"] == F(1, 2) - F(1, 3)


def test_mc_merge_proof():
    assert check_mp(load_fixture("fig3a"), "mc", None, "e1", "e2").verdict == "pass"
    from flowmech import parse_network

    two = parse_network("edge a s t 1\nedge b s t 2\n")
    assert check_mp(two, "mc", None, "a", "b").verdict == "pass"


# ---------------------------------------------------------------------------
# Cross monotonicity


def test_shapley_cm_violation_on_half_diamond():
    report = check_cm(load_fixture("fig4"), "shapley", None, "e1", increase_grid=[F(3, 5)])
    assert report.verdict == "violation"
    w = report.witness
    assert w["hurt_player"] == "e2"
    assert (w["payoff_before"], w["payoff_after"]) == (F(1, 3), F(19, 60))
    assert (w["flow_before"], w["flow_after"]) == (F(1), F(11, 10))


def test_mc_cm_passes_on_half_diamond():
    report = check_cm(load_fixture("fig4"), "mc", None, "e1", increase_grid=[F(3, 5)])
    assert report.verdict == "pass"
    assert report.trace.context["judged"] == (True,)


def test_mc_is_not_cm_from_a_zero_report():
    """Raised from 0, an edge's arc joins mc's positive cut family, so the
    cuts and their number K jump: with e1 at 0 the two-path network has
    the one cut family of the e3-e4 path, and any positive e1 adds the
    e1-e2 path's cuts, so e3's share of the flow falls although the flow
    rises with e1 all the way."""
    report = check_cm(parse_network(TWO_PATHS), "mc", {"e1": 0}, "e1")
    assert report.verdict == "violation"
    w = report.witness
    assert (w["from"], w["to"], w["hurt_player"]) == (0, F(1, 6), "e3")
    assert (w["flow_before"], w["flow_after"]) == (F(1), F(7, 6))
    assert (w["payoff_before"], w["payoff_after"]) == (F(1, 2), F(19, 48))


def test_core_select_cm_violation_on_unit_diamond():
    nine = load_fixture("fig9")
    report = check_cm(nine, "core-select", {"e1": 0}, "e1", increase_grid=[1])
    assert report.verdict == "violation"
    w = report.witness
    assert w["hurt_player"] == "e2"
    assert (w["payoff_before"], w["payoff_after"]) == (F(1), F(0))
    assert (w["flow_before"], w["flow_after"]) == (F(1), F(2))


def test_cm_steps_past_the_critical_value_are_not_judged():
    # raising a source edge beyond its critical value still raises the flow
    # from the base point, but the step leaves the binding regime; it must be
    # recorded and skipped rather than judged
    net = load_fixture("fig1")
    reports = {"e1": 1, "e2": F(1, 2)}
    report = check_cm(net, "mc", reports, "e1", increase_grid=[F(5, 4), 2])
    assert report.verdict == "pass"
    assert report.trace.context["judged"] == (True, False)
    # and indeed the skipped step would have lowered the inclusive partner
    base = mc_allocate(net, reports)["e2"]
    bumped = mc_allocate(net, {**reports, "e1": 2})["e2"]
    assert bumped < base


def test_cm_runs_the_mechanism_only_at_judged_points():
    # on the diamond the sink edges are the bottleneck, so raising a source
    # edge never raises the flow: no grid point is judged, and payoffs are
    # compared only at judged points, so not even the base is allocated
    calls = []

    def counting_mc(net, reports=None):
        calls.append(dict(reports))
        return mc_allocate(net, reports)

    report = check_cm(load_fixture("fig1"), counting_mc, None, "e1")
    assert report.verdict == "pass"
    assert report.trace.context["judged"] == (False,) * 6
    assert calls == []


def test_cm_that_judges_nothing_meets_no_guard_of_the_mechanism(monkeypatch, tmp_path, capsys):
    """A cm audit that judges no point calls no mechanism, so no guard of
    the mechanism stops it: on 21 edges the Shapley coalition table is
    over its guard, which stops the audit of the bottleneck edge, whose
    raises are judged, but not that of an edge behind it.  The same on 22
    edges, one bottleneck b into 21 parallel edges: the audit of p0 judges
    none of its 6 points, builds no coalition table and passes, and the CLI
    exits 0 for it and 1 for b.  Once a cm audit that judges nothing is
    not-tested, the p0 verdict is not-tested."""
    monkeypatch.delenv("FLOWMECH_MAX_EDGES", raising=False)
    net = parse_network("".join(f"edge e{k} s m 1\n" for k in range(1, 21)) + "edge b m t 1\n")
    report = check_cm(net, "shapley", None, "e1")
    assert report.verdict == "pass" and not any(report.trace.context["judged"])
    with pytest.raises(SizeGuardError, match="^coalition table: size 21 exceeds the guard of 20"):
        check_cm(net, "shapley", None, "b")
    text = "edge b s m 1\n" + "".join(f"edge p{i} m t 1\n" for i in range(21))
    net = parse_network(text)
    tables = _count_calls(monkeypatch, CharacteristicCache, "__init__")
    report = check_cm(net, "shapley", None, "p0")
    assert report.verdict == "pass" and report.trace.context["judged"] == (False,) * 6 and tables == []
    with pytest.raises(SizeGuardError, match="^coalition table: size 22 exceeds the guard of 20"):
        check_cm(net, "shapley", None, "b")
    path = tmp_path / "wide.net"
    path.write_text(text)
    assert [cli_main(["audit", "cm", str(path), "--mechanism", "shapley", "--edge", e]) for e in ("p0", "b")] == [0, 1]
    assert "size 22 exceeds the guard of 20" in capsys.readouterr().err


@pytest.mark.parametrize("span", [F(3), F(0), F(7, 13), F(10**9 + 7, 10**12 + 39)])
def test_grids_are_their_arithmetic_definitions(span):
    """The even grid and the default split grid, built one Fraction per
    point over a common denominator, are the points of their formulas."""
    for start in (F(0), F(5, 3), F(2), F(1, 10**9)):
        for n in (1, 3, 6, 8):
            assert audits._even_grid(span, n, start) == [start + F(k) * span / n for k in range(1, n + 1)]
    assert audits._even_grid(span, 4) == [F(k) * span / 4 for k in range(1, 5)]
    halves = [span / 2 - k * span / 8 for k in range(4)]
    parts, den = audits._split_steps(span)
    assert [(F(a, den), F(b, den)) for a, b in zip(parts[::2], parts[1::2])] == [(low, span - low) for low in halves]


@pytest.mark.parametrize("mechanism", ["mc", "shapley", "core-select"])
def test_cm_with_an_empty_grid_is_not_tested(mechanism, monkeypatch):
    """An empty increase grid judges nothing, so the audit may not pass; it
    returns before any corner flow or mechanism call."""
    corners = _count_calls(monkeypatch, audits._Profile, "flows")
    report = check_cm(load_fixture("fig1"), mechanism, None, "e1", increase_grid=[])
    assert (report.verdict, report.mechanism, report.trace) == ("not-tested", mechanism, None)
    assert report.witness == {"edge": "e1", "reason": "empty increase grid"}
    assert not report.passed and corners == []
    calls = []
    counting = _recorded(calls, mc_allocate)
    assert check_cm(load_fixture("fig1"), counting, None, "e1", increase_grid=[]).verdict == "not-tested"
    assert calls == []


def test_cm_rejects_non_increasing_grid():
    with pytest.raises(ValueError, match="does not increase"):
        check_cm(load_fixture("fig1"), "mc", None, "e1", increase_grid=[1])


def cm_by_max_flows(net, mechanism, reports, edge_id, grid):
    """check_cm's trace and verdict by definition: one max flow per grid
    point, and a point is judged when the flow rose as much as the report."""
    mech = resolve_mechanism(mechanism)
    caps = resolve_reports(net, reports)
    base, base_flow = caps[edge_id], max_flow(net, caps).value
    before = mech(net, caps).payoffs
    values, judged, verdict = [], [], "pass"
    for raised in grid:
        bumped = {**caps, edge_id: raised}
        values.append(max_flow(net, bumped).value)
        judged.append(values[-1] - base_flow == raised - base)
        if judged[-1]:
            after = mech(net, bumped).payoffs
            if any(after[e] < before[e] for e in caps if e != edge_id):
                verdict = "violation"
    return tuple(values), tuple(judged), verdict


def cm_cases(net, reports):
    """Every edge at the given reports and at a zero report, each with the
    default grid and a grid that runs past the critical value."""
    caps = resolve_reports(net, reports)
    for eid in net.edge_ids:
        for base in dict.fromkeys((caps[eid], F(0))):
            at = {**caps, eid: base}
            past = [base + F(k, 3) for k in (1, 2, 4, 8)] + [base + 1 + sum(caps.values())]
            yield at, eid, default_increase_grid(base)
            yield at, eid, past


def test_cm_trace_and_verdict_match_a_max_flow_per_point(deep_corpus):
    instances = [(net, None) for net in corpus(120)]
    instances += [pair for net in deep_corpus[:8] for pair in deep_instances(net)[:3]]
    instances += [(load_fixture("fig5"), None)]
    seen = {"judged": 0, "skipped": 0, "violation": 0, "direct": 0}
    for k, (net, reports) in enumerate(instances):
        mechanisms = ["mc", "core-select"] if k % 3 == 0 else ["mc"]
        for at, eid, grid in cm_cases(net, reports):
            for mech in mechanisms:
                report = check_cm(net, mech, at, eid, increase_grid=grid)
                values, judged, verdict = cm_by_max_flows(net, mech, at, eid, grid)
                case = (net, at, eid, grid, mech)
                assert report.trace.grid == tuple(grid), case
                assert report.trace.values == values, case
                assert report.trace.context["judged"] == judged, case
                assert report.verdict == verdict, case
                seen["judged"] += sum(judged)
                seen["skipped"] += len(judged) - sum(judged)
                seen["violation"] += verdict == "violation"
                seen["direct"] += net.is_terminal_edge(eid)
    assert all(seen.values()), seen


@pytest.mark.parametrize("points", [None, 1, 6, 30])
@pytest.mark.parametrize("fixture, edge_id", [("fig4", "e1"), ("fig5", "e3"), ("fig9", "e2")])
def test_cm_runs_at_most_three_max_flows(monkeypatch, every_augment_call, points, fixture, edge_id):
    """F(0) and F(B) give every flow of the trace.  For core-select they
    are two max flows, whatever the grid, and one for a direct source-sink
    edge (fig5/e3), whose flow rises with its report from the flow at the
    given reports; the only other max flow is the base allocation's nearest
    cut, and it runs only when a point is judged: the sweep reads every
    other nearest cut off the two corner flows.  For mc every
    flow is read off the profile's cut family: no max flow at all."""
    net = load_fixture(fixture)
    base = net.edge(edge_id).cap
    grid = None if points is None else [base + F(k, 4) for k in range(1, points + 1)]
    check_cm(net, "mc", None, edge_id, increase_grid=grid)
    assert every_augment_call == []
    nearest = _count_calls(monkeypatch, mechanisms, "min_cut_nearest_source")
    report = check_cm(net, "core-select", None, edge_id, increase_grid=grid)
    assert len(every_augment_call) - len(nearest) == (1 if net.is_terminal_edge(edge_id) else 2)
    assert bool(nearest) == any(report.trace.context["judged"])


def test_terminal_edges_leave_by_a_zero_report(monkeypatch, deep_corpus):
    """mc, the pair structure and the sweep report direct source-sink edges
    at 0 on the caller's network; none of them builds a copy without them."""
    deep = next(net for net in deep_corpus if net.terminal_edge_ids())
    cases = [(load_fixture("fig5"), "e1", "e2"), (deep, deep.edge_ids[0], deep.edge_ids[-2])]

    def run(net, a, b):
        return (
            mc_allocate(net),
            classify_pair_structure(net, None, a, b),
            cross_effect_sweep(net, None, a, b, points_per_interval=3),
            cross_effect_sweep(net, None, net.terminal_edge_ids()[0], a, points_per_interval=3),
        )

    expected = [run(*case) for case in cases]

    def refuse(self, edge_ids):
        raise AssertionError("a network copy without some edges was built")

    monkeypatch.setattr(FlowNetwork, "without_edges", refuse)
    for case, want in zip(cases, expected):
        assert run(*case) == want


# ---------------------------------------------------------------------------
# Cross-effect sweeps


def test_sweep_independent_pair():
    report = cross_effect_sweep(load_fixture("fig1"), {"e2": F(1, 2)}, "e1", "e3")
    assert report.verdict == "pass"
    assert report.trace.context["case"] == "independent"
    assert report.trace.context["critical_value"] == F(3, 2)
    values = report.trace.values
    rising, flat = values[:8], values[8:]
    assert all(a < b for a, b in zip(rising, rising[1:]))
    assert all(v == flat[0] for v in flat)


def test_sweep_inclusive_pair():
    report = cross_effect_sweep(load_fixture("fig1"), {"e2": F(1, 2)}, "e1", "e2")
    assert report.verdict == "pass"
    assert report.trace.context["case"] == "inclusive"
    values = report.trace.values
    flat, falling = values[:8], values[8:]
    assert all(v == F(1, 4) for v in flat)
    assert all(a > b for a, b in zip(falling, falling[1:]))


def test_sweep_neither_pair_rises_then_falls():
    report = cross_effect_sweep(load_fixture("neither"), None, "e2", "e4")
    assert report.verdict == "pass"
    assert report.trace.context["case"] == "neither"
    assert report.trace.context["critical_value"] == 1
    values = report.trace.values
    rising, falling = values[:8], values[8:]
    assert all(a < b for a, b in zip(rising, rising[1:]))
    assert all(a > b for a, b in zip(falling, falling[1:]))
    assert falling[0] < rising[-1]


def test_sweep_trace_invariants():
    report = cross_effect_sweep(load_fixture("fig1"), {"e2": F(1, 2)}, "e1", "e3")
    grid = report.trace.grid
    assert all(a < b for a, b in zip(grid, grid[1:]))
    for x, alloc in zip(grid, report.trace.context["allocations"]):
        assert alloc.total == max_flow(load_fixture("fig1"), {"e1": x, "e2": F(1, 2)}).value


def test_sweep_terminal_edge_case():
    report = cross_effect_sweep(load_fixture("fig5"), None, "e3", "e1")
    assert report.verdict == "pass"
    assert report.trace.context["case"] == "terminal-edge"
    assert len(set(report.trace.values)) == 1
    flipped = cross_effect_sweep(load_fixture("fig5"), None, "e1", "e3")
    assert flipped.verdict == "pass"
    assert flipped.trace.context["case"] == "terminal-edge"


@pytest.mark.parametrize("fixture, edge", [("fig5", "e3"), ("fig1", "e1")], ids=["terminal", "inner"])
def test_sweep_rejects_the_same_edge_twice(fixture, edge):
    with pytest.raises(ValueError, match="the two edges must differ"):
        cross_effect_sweep(load_fixture(fixture), None, edge, edge)


SWEEP_PLANTS = [
    # fixture name or network, reports, swept, observed, the planted
    # observed payoff at report x (from the true one p), and the expected
    # witness
    pytest.param(
        "fig1", {"e2": F(1, 2)}, "e1", "e3", lambda x, p: p + 1 if x > F(3, 2) else p,
        {"case": "independent", "critical_value": F(3, 2)}, id="independent-tail-jumps",
    ),
    pytest.param(
        "fig1", {"e2": F(1, 2)}, "e1", "e3", lambda x, p: F(0) if x <= F(3, 2) else p,
        {"case": "independent", "critical_value": F(3, 2)}, id="independent-flat-start",
    ),
    pytest.param(
        "fig1", {"e2": F(1, 2)}, "e1", "e2", lambda x, p: p + x if x <= F(3, 2) else p,
        {"case": "inclusive", "critical_value": F(3, 2)}, id="inclusive-rises",
    ),
    pytest.param(
        "neither", None, "e2", "e4", lambda x, p: F(0) if x > 1 else p,
        {"case": "neither", "critical_value": F(1)}, id="neither-flat-tail",
    ),
    pytest.param(
        "fig1", {"e2": 3}, "e1", "e2", lambda x, p: F(1) if x > 0 else p,
        {"case": "neither", "critical_value": F(0)}, id="zero-threshold-flat-tail",
    ),
    pytest.param(
        "fig1", {"e3": 0, "e4": 0}, "e1", "e2", lambda x, p: p + x,
        {"case": "independent", "critical_value": F(0)}, id="zero-threshold-rising-tail",
    ),
    pytest.param(
        # at a zero threshold the rising points all sit at 0 and are not judged
        "fig1", {"e2": 3}, "e1", "e2", lambda x, p: p + 5 if x == 0 else p, None,
        id="zero-threshold-rising-points-ignored",
    ),
    pytest.param(
        "fig5", None, "e3", "e1", lambda x, p: p + x,
        {"expected": "constant payoff for terminal-edge pairs"}, id="terminal-edge-moves",
    ),
    pytest.param(
        # e3's only feeder e5 is at 0, so e3 lies in no minimal cut and mc
        # pays it 0 throughout: any move is a violation
        random_network(23), {"e1": F(5, 4), "e2": F(3, 2), "e3": F(1, 3), "e4": F(2, 7), "e5": 0},
        "e1", "e3", lambda x, p: p + x,
        {"case": "independent", "critical_value": F(3, 2)}, id="observed-in-no-cut-moves",
    ),
]


@pytest.mark.parametrize("fixture, reports, swept, observed, plant, witness", SWEEP_PLANTS)
def test_sweep_flags_a_planted_trajectory(monkeypatch, fixture, reports, swept, observed, plant, witness):
    def planted_mc(net, reports=None):
        alloc = mc_allocate(net, reports)
        payoffs = {**alloc.payoffs, observed: plant(reports[swept], alloc.payoffs[observed])}
        return Allocation("mc", payoffs)

    net = load_fixture(fixture) if isinstance(fixture, str) else fixture
    assert cross_effect_sweep(net, reports, swept, observed).verdict == "pass"
    monkeypatch.setattr(audits, "mc_allocate", planted_mc)
    report = cross_effect_sweep(net, reports, swept, observed)
    assert report.verdict == ("pass" if witness is None else "violation")
    assert report.witness == witness


# ---------------------------------------------------------------------------
# Shapley comparative statics


def test_shapley_relation_probe_series():
    report = shapley_relation_probe(load_fixture("series"), "e1", "e2", sample_count=15, seed=2)
    assert report.verdict == "pass"
    assert report.witness["relation"] == "complementary"
    assert report.witness["pattern"] == "series"


def test_shapley_relation_probe_parallel():
    report = shapley_relation_probe(load_fixture("fig3a"), "e1", "e2", sample_count=15, seed=2)
    assert report.verdict == "pass"
    assert report.witness["relation"] == "substitutable"
    assert report.witness["pattern"] == "parallel"


def test_shapley_relation_probe_diverging():
    report = shapley_relation_probe(load_fixture("diverge"), "e2", "e3", sample_count=10, seed=4)
    assert report.verdict == "pass"
    assert report.witness["relation"] == "substitutable"


def test_shapley_relation_probe_half_diamond_source_pair():
    # the two source edges are full parallels; the sampled relation must be
    # substitutable, matching the payoff drop seen when one report rises
    report = shapley_relation_probe(load_fixture("fig4"), "e1", "e2", sample_count=10, seed=4)
    assert report.verdict == "pass"
    assert report.witness["relation"] == "substitutable"
    assert report.witness["pattern"] == "parallel"


@pytest.mark.parametrize(
    "fixture, pair, relation, wrong, right",
    [
        ("series", ("e1", "e2"), "complementary", lambda x: -x, lambda x: min(x, 1)),
        ("fig3a", ("e1", "e2"), "substitutable", lambda x: x, lambda x: -min(x, 1)),
        ("fig2a", ("e1", "e2"), "degenerate", lambda x: min(x, 1), lambda x: F(1, 3)),
    ],
    ids=["complementary", "substitutable", "degenerate"],
)
def test_shapley_relation_probe_flags_wrong_direction_payoffs(
    monkeypatch, fixture, pair, relation, wrong, right
):
    """Planted payoffs of the observed edge, as a function of the swept
    edge's report: a step against the relation's direction is a violation,
    a flat step never is."""
    i, j = pair
    net = load_fixture(fixture)
    planted = {}

    def fake_shapley(net, reports):
        return Allocation("shapley", {**dict.fromkeys(net.edge_ids, F(0)), j: planted["payoff"](reports[i])})

    monkeypatch.setattr(audits, "shapley", fake_shapley)
    planted["payoff"] = right
    assert shapley_relation_probe(net, i, j, sample_count=10, seed=3).verdict == "pass"
    planted["payoff"] = wrong
    report = shapley_relation_probe(net, i, j, sample_count=10, seed=3)
    assert report.verdict == "violation"
    assert set(report.witness) == {"pair", "relation", "configuration", "grid", "values"}
    assert report.witness["pair"] == pair
    assert report.witness["relation"] == relation
    grid = report.witness["grid"]
    assert grid == [k * (net.edge(i).cap + 1) / 6 for k in range(1, 7)]
    assert report.witness["values"] == [wrong(x) for x in grid]
    assert i not in report.witness["configuration"]


def test_shapley_relation_probe_of_a_refuted_claim_is_not_tested(monkeypatch):
    """No fixture or random pair has given a refuted constant claim, so one
    is planted: the probe then tests nothing and says why."""
    refuted = ComplementarityVerdict(Relation.COMPLEMENTARY, (), ConstantClaim("refuted"))
    monkeypatch.setattr(audits, "probe_constant_relation", lambda *args: refuted)
    report = shapley_relation_probe(load_fixture("series"), "e1", "e2", sample_count=5)
    assert (report.verdict, report.witness) == ("not-tested", {"constant_claim": "refuted"})


def test_shapley_gains_nothing_on_the_fan():
    fan = load_fixture("fig2a")
    for eid in fan.edge_ids:
        assert best_deviation(fan, "shapley", eid).gain == 0


# ---------------------------------------------------------------------------
# Corpus-level invariants


def test_core_select_is_split_and_merge_proof_on_corpus(fuzz_corpus):
    """On the split and merged networks themselves: the per-point wrapper
    allocates each of them, where the core-select sweep reads the base."""
    for net in fuzz_corpus[:60]:
        for eid in net.edge_ids:
            assert check_sp(net, _per_point_core_select, None, eid).verdict == "pass", (net, eid)
        for ea, eb in parallel_pairs(net):
            assert check_mp(net, _per_point_core_select, None, ea, eb).verdict == "pass", (net, ea, eb)


def test_cross_effect_trajectories_match_classification_on_corpus(fuzz_corpus):
    """Every pair passes, and the sweep, which sets the swept edge's report
    at every point, reports the same with that edge reported at 0."""
    for net in fuzz_corpus[:50]:
        non_terminal = [eid for eid in net.edge_ids if not net.is_terminal_edge(eid)]
        for swept in non_terminal:
            for observed in non_terminal:
                if swept == observed:
                    continue
                report = cross_effect_sweep(net, None, swept, observed, points_per_interval=4)
                assert report.verdict == "pass", (net, swept, observed, report.trace)
                at_zero = cross_effect_sweep(net, {swept: 0}, swept, observed, points_per_interval=4)
                assert at_zero == report, (net, swept, observed, at_zero.trace)


def test_cross_effect_sweeps_pass_at_mixed_reports(mixed_report_corpus):
    """Every non-terminal ordered pair passes at reports with zeros, direct
    edges, and split and merged networks, and its critical value is the
    three-flow reference's with the direct edges at 0."""
    for net, reports in mixed_report_corpus:
        direct = dict.fromkeys(net.terminal_edge_ids(), 0)
        non_terminal = [eid for eid in net.edge_ids if eid not in direct]
        for swept in non_terminal:
            threshold = critical_value_three_flows(net, {**resolve_reports(net, reports), **direct}, swept)
            for observed in non_terminal:
                if swept == observed:
                    continue
                report = cross_effect_sweep(net, reports, swept, observed, points_per_interval=3)
                assert report.verdict == "pass", (net, reports, swept, observed, report.trace)
                assert report.trace.context["critical_value"] == threshold, (net, reports, swept)


# ---------------------------------------------------------------------------
# Random network generator


def test_random_network_deterministic():
    assert random_network(123) == random_network(123)
    assert random_network(123) != random_network(124)


def test_random_network_respects_bounds():
    for seed in range(50):
        net = random_network(seed, max_nodes=5, max_edges=6)
        assert len(net.nodes) <= 5
        assert len(net.edges) <= 6


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"max_nodes": 1}, "need at least the source and the sink"),
        ({"max_edges": 0}, "max_edges must be >= 1, got 0"),
        ({"max_edges": -3}, "max_edges must be >= 1, got -3"),
    ],
)
def test_random_network_refuses_bounds_it_cannot_meet(kwargs, message):
    with pytest.raises(ValueError) as exc:
        random_network(1, **kwargs)
    assert str(exc.value) == message


def test_random_network_lattice():
    lattice = CapLattice(numerator_max=4, denominator=2)
    net = random_network(7, cap_lattice=lattice)
    for e in net.edges:
        assert e.cap.denominator in (1, 2)
        assert 0 < e.cap <= 2


@pytest.mark.parametrize(
    "args, digest",
    [
        ((), "5420e8b477674136322cebe5607cbc860f9e97bc2a58cb705737b82c0b5b0b6d"),
        ((6, 9), "77ceffadbe4c332161e59dc0e51a41c91e11c8654c8674b93f519598c42100a5"),
        ((7, 9), "e1a0a29b04212dedd5f2f90f45125419385dfbbe708ebc3c27ba6560e60d6dc5"),
        ((2, 3), "2d5e305bd93d8dbf37df98e1720ef98880cd8b8750d3df8dd325504fef41bc89"),
        ((3, 5), "18667efec9125734b1cf6fd7a5b8047a7a9341e5c85cb4686db830d21e5e5132"),
        ((6, 10), "2fdbd12e900f38cccf9ac0a6b13d545ace11861574d9d1093568f1175e937d4d"),
        ((10, 14), "7f41e34aa1d38f402d10e8b28dceeee7bf046e68e4b519cd4a4a55f48efaa0a6"),
        ((12, 20), "2fdb58db8ba49f3d719101b5761dd8d37a40b371a5a6002d3a8ef4f2a50d20e3"),
    ],
)
def test_random_network_output_pinned(args, digest):
    # every corpus, benchmark workload and seeded test draws from this
    # generator, so seeds 1-300 must keep rendering to the same text
    h = hashlib.sha256()
    for seed in range(1, 301):
        h.update(render_network(random_network(seed, *args)).encode())
    assert h.hexdigest() == digest


def test_generator_thousand_seeds_all_validate():
    for seed in range(1000):
        assert validate(random_network(seed)).ok


@pytest.mark.parametrize(
    "shape, lattice",
    [((2, 3), CapLattice()), ((3, 5), CapLattice(1, 1)), ((7, 9), CapLattice(16, 3)), ((12, 20), CapLattice())],
)
def test_random_networks_validate_by_construction(shape, lattice):
    """`random_network` returns what it built without validating it, so
    every shape and lattice must give valid networks by construction."""
    for seed in range(300):
        assert validate(random_network(seed, *shape, cap_lattice=lattice)).diagnostics == ()


@pytest.mark.parametrize("numerator_max, denominator", [(0, 4), (-1, 4), (8, 0), (8, -4)])
def test_cap_lattice_refuses_nonpositive_bounds(numerator_max, denominator):
    with pytest.raises(ValueError, match="numerator_max >= 1 and denominator >= 1"):
        CapLattice(numerator_max, denominator)


# ---------------------------------------------------------------------------
# Bundled audit runner


def checks_one_by_one(net, mechanism, grid_size, reports=None):
    """Every check of `audit_all`, called one at a time, in its order."""
    return (
        [("dsic", check_dsic(net, mechanism, reports, grid_size=grid_size))]
        + [("sir", check_sir(net, mechanism, reports))]
        + [("sp", check_sp(net, mechanism, reports, eid)) for eid in net.edge_ids]
        + [("mp", check_mp(net, mechanism, reports, a, b)) for a, b in parallel_pairs(net)]
        + [("cm", check_cm(net, mechanism, reports, eid)) for eid in net.edge_ids]
    )


def _under_reports(net):
    """Every other edge, the first included, reported at half its truth."""
    return {e.id: e.cap / 2 for e in net.edges[::2]}


@pytest.mark.parametrize("mechanism", ["mc", "core-select", "shapley"])
def test_audit_all_equals_the_checks_one_by_one(all_fixtures, mechanism):
    """`audit_all` hands its checks one shared allocation of the given
    profile; what they report is what each check reports on its own, on
    the mechanism's name."""
    assert list(AUDITS) == ["dsic", "sir", "sp", "mp", "cm"]
    verdicts = set()
    for net in [*all_fixtures.values(), *corpus(30)]:
        for reports in (None, _under_reports(net)):
            # a grid other than the default shows that the grid reaches dsic
            expected = checks_one_by_one(net, mechanism, 4, reports)
            assert audit_all(net, mechanism, reports, grid_size=4) == [report for _, report in expected]
            for prop, run in AUDITS.items():
                assert run(net, mechanism, reports, 4) == [r for p, r in expected if p == prop]
            verdicts.update(report.verdict for _, report in expected)
    assert verdicts == ({"pass"} if mechanism == "mc" else {"pass", "violation"})


def _recorded(calls, mechanism):
    """`mechanism`, appending the network and resolved reports of every call
    to `calls`."""

    def recorded(net, reports=None):
        calls.append((net, tuple(resolve_reports(net, reports).items())))
        return mechanism(net, reports)

    return recorded


@pytest.mark.parametrize("mechanism", list(MECHANISMS))
def test_audit_all_allocates_each_profile_once(monkeypatch, all_fixtures, mechanism):
    """With truthful reports the deviation search lowers a report, the cm
    sweep raises one, and split and merge build new networks, so the only
    profile two checks share is the given one, and it is allocated once."""
    calls = []
    monkeypatch.setitem(MECHANISMS, mechanism, _recorded(calls, MECHANISMS[mechanism]))
    for net in all_fixtures.values():
        for reports in (None, _under_reports(net)):
            calls.clear()
            audit_all(net, mechanism, reports)
            assert calls.count((net, tuple(resolve_reports(net, reports).items()))) == 1
            if reports is None:
                assert len(calls) == len(set(calls)), net


@pytest.mark.parametrize("mechanism", list(MECHANISMS))
def test_audit_all_runs_each_edges_corner_flows_once(monkeypatch, all_fixtures, mechanism):
    """The deviation search takes a player's critical value, and the cm
    sweep its base flow and room, from the same corner flows F(0) and F(B)
    of the edge, which do not depend on its own report: one `audit_all`
    runs them once per edge that is not direct, under any report.  For mc
    they are read off the edge's view of the profile's cut family, so
    `_corner_flows` runs for no edge."""
    import sys

    from flowmech import maxflow

    swept = []
    corner_flows = maxflow._corner_flows

    def counted(net, scale, weights, edges):
        swept.extend(net.edge_ids[k] for k in edges)
        return corner_flows(net, scale, weights, edges)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "flowmech" and getattr(module, "_corner_flows", None) is corner_flows:
            monkeypatch.setattr(module, "_corner_flows", counted)
    for net in all_fixtures.values():
        inner = [eid for eid in net.edge_ids if not net.is_terminal_edge(eid)]
        for reports in (None, _under_reports(net)):
            swept.clear()
            audit_all(net, mechanism, reports)
            assert sorted(swept) == ([] if mechanism == "mc" else sorted(inner)), (net, reports)


def test_parallel_pairs_match_the_pairwise_scan(all_fixtures):
    """`parallel_pairs` reads the copies of each arc of the topology and
    lists the same pairs, in the same order, as the pairwise tail and head
    scan of `parallel_pairs_reference`, also on networks of at most three
    nodes, where most edges have parallels."""
    nets = [*all_fixtures.values()]
    nets += [random_network(s, 3, 8) for s in range(1, 301)]
    nets += [random_network(s, 6, 12) for s in range(1, 301)]
    pairs = [parallel_pairs(net) for net in nets]
    assert pairs == [parallel_pairs_reference(net) for net in nets]
    # some lists interleave the pairs of two arcs, so their order is tested too
    arcs = [[(net.edge(a).tail, net.edge(a).head) for a, _ in got] for net, got in zip(nets, pairs)]
    assert any(seq != sorted(seq, key=seq.index) for seq in arcs)


def test_check_dsic_passes_each_players_truthful_profile_through(all_fixtures):
    """With reports below the truth, a player's truthful profile is not the
    given one: each reaches the mechanism, and no profile does twice."""
    calls = []
    zero = _recorded(calls, lambda net, reports: Allocation("zero", dict.fromkeys(net.edge_ids, F(0))))
    for net in all_fixtures.values():
        reports = resolve_reports(net, _under_reports(net))
        calls.clear()
        assert check_dsic(net, zero, reports).verdict == "pass"
        for e in net.edges:
            assert (net, tuple({**reports, e.id: e.cap}.items())) in calls, (net, e.id)
        assert len(calls) == len(set(calls)), net


@pytest.mark.parametrize("mechanism", list(MECHANISMS))
def test_a_profile_handed_its_own_caps_resolves_nothing(monkeypatch, all_fixtures, mechanism):
    """`audit_all` resolves its reports once, and hands each check its
    profile with the profile's own `caps`, which `_Profile.of` passes
    through without resolving them again; equal reports in a new dict are
    resolved and still give the same profile."""
    resolved = []
    original = audits.resolve_reports

    def counted(net, reports=None):
        resolved.append(reports)
        return original(net, reports)

    monkeypatch.setattr(audits, "resolve_reports", counted)
    for net in all_fixtures.values():
        for reports in (None, _under_reports(net)):
            resolved.clear()
            audit_all(net, mechanism, reports)
            assert resolved == [reports], net
            profile = audits._Profile.of(net, mechanism, reports)
            assert audits._Profile.of(net, profile, profile.caps) is profile
            assert audits._Profile.of(net, profile, dict(profile.caps)) is profile
            assert len(resolved) == 3


# ---------------------------------------------------------------------------
# Integer judging against the Fraction references


def _custom_mc(net, reports=None):
    """mc_allocate behind a name of its own: the audits take `_PerPoint`."""
    return mc_allocate(net, reports)


def _numbers(value):
    """Every number inside a witness or trace: ints, Fractions and what
    the containers hold, but not the flags of a trace's `judged`."""
    if isinstance(value, bool):
        return
    if isinstance(value, (int, F)):
        yield value
    elif isinstance(value, dict):
        for key, item in value.items():
            if key != "judged":
                yield from _numbers(item)
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _numbers(item)
    elif isinstance(value, (AuditReport, SweepTrace, DeviationWitness)):
        yield from _numbers(vars(value))


def _integer_and_fraction_audits(net, mech, reports):
    """Every player's best deviation and every sp, mp and cm report on the
    default grids and on grids with mixed denominators and a zero part,
    by the audits and by the Fraction references."""
    pairs = []
    caps = resolve_reports(net, reports)
    for eid in net.edge_ids:
        pairs.append((
            best_deviation(net, mech, eid, others_reports=reports, grid_size=6),
            best_deviation_fraction_reference(net, mech, eid, others_reports=reports, grid_size=6),
        ))
        b = caps[eid]
        for split in (None, [(0, b), (b / 3, 2 * b / 3), (b * F(5, 7), b * F(2, 7))]):
            pairs.append((check_sp(net, mech, reports, eid, split), check_sp_fraction_reference(net, mech, reports, eid, split)))
        for grid in (None, [b + F(1, 3), b + F(5, 7), b + 2, b + F(9, 4)]):
            pairs.append((check_cm(net, mech, reports, eid, grid), check_cm_fraction_reference(net, mech, reports, eid, grid)))
    for a, b in parallel_pairs(net):
        pairs.append((check_mp(net, mech, reports, a, b), check_mp_fraction_reference(net, mech, reports, a, b)))
    return pairs


def test_integer_judging_equals_the_fraction_references(all_fixtures):
    """The deviation search and the sp, mp and cm audits judge in scaled
    integers and return what the Fraction-judging references return: the
    same verdicts, witnesses and traces, on the fixtures, the multi-block
    random networks and the benchmark's audit-deep DAG shapes, at true
    reports and at under-reports with mixed denominators and zeros, for
    the three mechanisms and a custom callable.  As in the benchmark, the
    DAGs of 13 to 17 edges are audited under mc and core-select only.
    Every number they return is a Fraction, and every allocation a sweep
    returns is integers over a positive integer denominator."""
    gen = load_benchmark_generator()
    every = ["mc", "shapley", "core-select", _custom_mc]
    cases = [(net, every) for net in all_fixtures.values()]
    cases += [(random_network(s, 7, 9), every) for s in range(1, 151)]
    cases += [(gen.layered_dag(k, 1000 + k, *shape), ["mc", "core-select", _custom_mc]) for k, shape in enumerate(AUDIT_DEEP_SHAPES)]
    verdicts = {}
    for n, (net, mechanisms_here) in enumerate(cases):
        for reports in (None, mixed_under_reports(net, n)):
            for mech in mechanisms_here:
                for got, want in _integer_and_fraction_audits(net, mech, reports):
                    assert got == want, (net, reports, mech)
                    assert all(type(x) is F for x in _numbers(got)), got
                    verdicts.setdefault(getattr(mech, "__name__", mech), set()).add(getattr(got, "verdict", "deviation"))
                profile = audits._Profile.of(net, mech, reports)
                for eid in net.edge_ids[:2]:
                    r = profile.caps[eid] / 2 + F(1, 3)
                    nums, d = profile.along(eid).scaled_allocation(r.numerator, r.denominator)
                    assert all(type(x) is int for x in [*nums, d]) and d > 0, (mech, nums, d)
    assert all(seen >= {"pass", "violation", "not-tested"} for name, seen in verdicts.items() if name != "mc"), verdicts
    assert verdicts["mc"] >= {"pass", "not-tested"}, verdicts
