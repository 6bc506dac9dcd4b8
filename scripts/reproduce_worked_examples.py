#!/usr/bin/env python3
"""Golden worked examples, end to end.

Walks the bundled fixture graphs and prints every headline number the test
suite pins: the Shapley split/merge/cross-monotonicity failures, the
stand-alone step of the cut-splitting mechanism, and the core-selection
counterexamples.  Everything is exact; the script exits non-zero if any
recomputed value disagrees with the expected one.
"""

from fractions import Fraction as F

from flowmech import (
    best_deviation,
    check_cm,
    core_bounds_all,
    core_select_nearest_cut,
    load_fixture,
    max_flow,
    mc_allocate,
    mc_no_step_one,
    shapley,
)

failures = 0


def show(label: str, got, expected) -> None:
    global failures
    mark = "ok " if got == expected else "FAIL"
    if got != expected:
        failures += 1
    print(f"  [{mark}] {label}: {got} (expected {expected})")


def main() -> int:
    print("== splitting an edge raises its Shapley payoff ==")
    fan = load_fixture("fig2a")
    show("fan, payoff of the capacity-2 outlet", shapley(fan)["e1"], F(1, 30))
    split = shapley(load_fixture("fig2b"))
    show("after the 1+1 split, each half", split["e1_1"], F(1, 42))
    show("the pair beats the original", F(2, 42) > F(1, 30), True)

    print("== merging parallels raises it too ==")
    pair = shapley(load_fixture("fig3a"))
    show("each parallel edge", pair["e1"], F(1, 6))
    show("merged edge", shapley(load_fixture("fig3b"))["e1+e2"], F(1, 2))

    print("== a rising report can sink a Shapley payoff while flow rises ==")
    dia = load_fixture("fig4")
    show("flow at the base reports", max_flow(dia).value, F(1))
    show("flow after e1 reports 3/5", max_flow(dia, {"e1": F(3, 5)}).value, F(11, 10))
    show("Shapley(e2) before", shapley(dia)["e2"], F(1, 3))
    show("Shapley(e2) after", shapley(dia, {"e1": F(3, 5)})["e2"], F(19, 60))
    mc_before, mc_after = mc_allocate(dia), mc_allocate(dia, {"e1": F(3, 5)})
    show(
        "cut mechanism never drops the others",
        all(mc_after[e] >= mc_before[e] for e in ("e2", "e3", "e4")),
        True,
    )

    print("== the stand-alone step keeps the cut mechanism rational ==")
    chain = load_fixture("fig5")
    show("direct edge without the step", mc_no_step_one(chain)["e3"], F(5, 6))
    show("direct edge with the step", mc_allocate(chain)["e3"], F(1))

    print("== core selection punishes honesty ==")
    net = load_fixture("fig1")
    show(
        "the core is the single point (0,0,1,1)",
        core_bounds_all(net),
        {"e1": (F(0), F(0)), "e2": (F(0), F(0)), "e3": (F(1), F(1)), "e4": (F(1), F(1))},
    )
    show("honest payoff of the capacity-2 edge", core_select_nearest_cut(net)["e1"], F(0))
    witness = best_deviation(net, "core-select", "e1")
    show("best under-report", witness.best_report, F(1))
    show("gain from lying", witness.gain, F(1))

    print("== and no core selection is cross monotone ==")
    nine = load_fixture("fig9")
    report = check_cm(nine, "core-select", {"e1": 0}, "e1", increase_grid=[1])
    show("raising e1 from 0 to 1 hurts somebody", report.verdict, "violation")
    show("the hurt player", report.witness["hurt_player"], "e2")

    print(f"\n{'all values reproduced' if failures == 0 else f'{failures} value(s) off'}")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
