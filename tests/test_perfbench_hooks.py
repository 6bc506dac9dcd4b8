"""The benchmark's tracer (perfbench/tracing.py) patches flowmech names from
outside: `cuts._minimal_cutsets`, reached only through functions of
`cuts.py`, and `CharacteristicCache._compute` and `._min_cut_int`, read
through `.method`.  Its cm counters read `trace.grid` and
`trace.context["judged"]` of each `check_cm` report, and its simplex
counter wraps `simplex.solve_standard_form`.  This checks that those names
still carry the work, so the traced per-layer counts keep their meaning."""

import importlib.util
from fractions import Fraction
from pathlib import Path

import flowmech.cli  # noqa: F401  (imports every module the tracer patches)
from flowmech import (
    audits,
    classify_complementarity,
    core_bounds,
    core_bounds_all,
    cuts,
    load_fixture,
    mc_allocate,
    shapley,
)
from flowmech.game import CharacteristicCache

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_sees_cut_enumeration_and_table_fills():
    tracing = _load_tracing()
    original = cuts._minimal_cutsets
    compute, min_cut = CharacteristicCache._compute, CharacteristicCache._min_cut_int
    tracer = tracing.Tracer()

    def spans(name):
        return sum(1 for span in tracer.spans if span[0] == name)

    # (fixture, table size, coalitions filled by core_bounds of its first
    # edge): fig4 is one block of 4 edges, so both are 2^4 - 1; fig5 has the
    # blocks {e1, e2} and {e3}, a table of 3 + 1, and e1's block alone is 3
    for name, table_size, bound_fills in (("fig4", 15, 15), ("fig5", 4, 3)):
        net = load_fixture(name)
        tracer.spans.clear()
        tracer.install()
        try:
            shapley(net, cache=CharacteristicCache(net, method="cuts"))
            table = spans("cuts.enumerate"), spans(tracing.FILL)
            mc_allocate(net)
            after_mc = spans("cuts.enumerate")
            classify_complementarity(net, *net.edge_ids[:2])
            core_bounds(net, None, net.edge_ids[0])
        finally:
            tracer.uninstall()
        assert table == (1, table_size), name
        assert after_mc > table[0], name
        assert spans(tracing.FILL) == table_size + bound_fills, name
    assert cuts._minimal_cutsets is original
    assert CharacteristicCache._compute is compute and CharacteristicCache._min_cut_int is min_cut


def test_tracer_counts_cm_points_and_judged_points():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    # fig4's e1 (report 1/2) can rise by 1 before the sink edges bind, so
    # the first two points are judged and the last two are not
    grid = [Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3)]
    tracer.install()
    try:
        report = audits.check_cm(load_fixture("fig4"), "mc", None, "e1", increase_grid=grid)
    finally:
        tracer.uninstall()
    judged = report.trace.context["judged"]
    assert judged == (True, True, False, False)
    assert tracer.counts["audits.cm.points"] == len(report.trace.grid) == len(grid)
    assert tracer.counts["audits.cm.judged_points"] == sum(judged)
    assert sum(1 for span in tracer.spans if span[0] == "audits.check_cm") == 1


def test_tracer_counts_two_lp_solves_per_core_bound():
    """`simplex.solve_standard_form.calls` counts the core LPs: one
    minimum and one maximum per edge, so 8 for fig4's 4 edges."""
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        bounds = core_bounds_all(load_fixture("fig4"))
    finally:
        tracer.uninstall()
    assert len(bounds) == 4
    assert sum(1 for span in tracer.spans if span[0] == "simplex.solve_standard_form") == 8
