#!/usr/bin/env python3
"""Count the work of one cold round of a benchmark workload.

    python3 scripts/count_work.py --workload cli-fixtures --seed 1

Builds the workload of `perfbench/workloads.py` (read, not changed), clears
the minimal-cut cache and runs each operation once, counting:

- `_augment` calls, every max flow, through every flowmech module's name
  for it, and among them those that continue from a given flow (`start`)
  instead of from zero flow, as every corner flow but the first of
  `maxflow._corner_flows` does;
- `CharacteristicCache._compute` calls, one per coalition value a table
  computes;
- calls of each registered mechanism, through the registry and every
  module's name for the function;
- the points at which an audit evaluated `mc` through a compiled one-report
  sweep (a method of `mechanisms.McSweep` in `SWEEP_METHODS`) instead of
  a mechanism call;
- the points at which an audit evaluated Shapley through a one-report
  sweep on the base profile's coalition table
  (a method of `mechanisms.ShapleySweep` in `SWEEP_METHODS`) instead of a
  mechanism call;
- the points at which an audit evaluated `core-select` through a one-report
  sweep that reads its nearest cuts off the profile's corner flows
  (a method of `mechanisms.CoreSelectSweep` in `SWEEP_METHODS`) instead of
  a mechanism call.

A call inside another counted call of the same row is not counted again,
so a sweep point is counted once, at the outermost of these methods: a
split payoff that a sweep reads as its payoff at the sum is one point.

An operation that raises is counted up to the point where it raised.
Standard library only.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("audit-deep", "core-shapley", "pair-probe", "cli-fixtures")
#: a sweep's answers, all in scaled integers
SWEEP_METHODS = ("scaled_payoff", "scaled_allocation", "scaled_split_payoff", "scaled_merged_payoff")


def _counting(fn, counts: dict[str, int], key: str, active: set[str]):
    """`fn`, adding 1 to `counts[key]` on each call that is not inside
    another counted call of the same key, so a sweep method that answers
    through another one (a split payoff read as the payoff at the sum)
    counts as one point."""

    def counted(*args, **kwargs):
        if key in active:
            return fn(*args, **kwargs)
        counts[key] += 1
        active.add(key)
        try:
            return fn(*args, **kwargs)
        finally:
            active.discard(key)

    return counted


def _counting_warm(fn, counts: dict[str, int], key: str):
    """`_augment`, adding 1 to `counts[key]` on each call given a start."""

    def counted(net, weights, start=None):
        if start is not None:
            counts[key] += 1
        return fn(net, weights, start)

    return counted


def _rebind(orig, replacement) -> None:
    """Replace `orig` under every flowmech module's name for it."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "flowmech":
            continue
        for key, value in list(vars(module).items()):
            if value is orig:
                setattr(module, key, replacement)


def count_round(workload: str, seed: int) -> tuple[int, dict[str, int]]:
    """The number of operations of one round, and the counts of its run,
    in printing order."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads
    from flowmech import cuts, game, maxflow, mechanisms

    built = workloads.BUILDERS[workload](seed)
    registry = mechanisms.MECHANISMS
    sweeps = {
        mechanisms.McSweep: "mc sweep points",
        mechanisms.ShapleySweep: "shapley sweep points",
        mechanisms.CoreSelectSweep: "core-select sweep points",
    }
    active: set[str] = set()
    counts = dict.fromkeys(
        ["_augment", "_augment warm-started", "_compute"]
        + [f"mechanism {name}" for name in registry]
        + list(sweeps.values()),
        0,
    )
    augment = _counting(_counting_warm(maxflow._augment, counts, "_augment warm-started"), counts, "_augment", active)
    _rebind(maxflow._augment, augment)
    cache_cls = game.CharacteristicCache
    cache_cls._compute = _counting(cache_cls._compute, counts, "_compute", active)
    for name, fn in list(registry.items()):
        registry[name] = _counting(fn, counts, f"mechanism {name}", active)
        _rebind(fn, registry[name])
    for sweep, key in sweeps.items():
        for method in SWEEP_METHODS:
            setattr(sweep, method, _counting(getattr(sweep, method), counts, key, active))
    cuts._minimal_cutsets.cache_clear()
    for op in built.ops:
        try:
            op.fn()
        except Exception:  # a failing operation still did its work
            pass
    return len(built.ops), counts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    operations, counts = count_round(args.workload, args.seed)
    print(f"workload {args.workload}, seed {args.seed}: {operations} operations, one cold round")
    for key, count in counts.items():
        print(f"{key:<24}{count:>8}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
