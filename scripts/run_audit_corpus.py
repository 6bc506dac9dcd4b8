#!/usr/bin/env python3
"""Seeded property-audit campaign over random instances.

For each seed: build a random network, run every audit against the chosen
mechanisms, and tally verdicts.  Next to the tally it prints how many graphs
have each number of internal nodes: a graph without one has no cut for the
cut-splitting step two to split.  The cut-splitting mechanism is expected to
come out clean on all five properties; Shapley on truthfulness and
rationality only.  Exits 2 if an unexpected violation shows up.
"""

import argparse
from collections import Counter

from flowmech import AUDITS, random_network, shapley
from flowmech.mechanisms import mc_allocate

CLEAN = {
    "mc": ("dsic", "sir", "sp", "mp", "cm"),
    "shapley": ("dsic", "sir"),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=100, help="number of random instances")
    parser.add_argument("--start", type=int, default=1, help="first seed")
    parser.add_argument("--max-edges", type=int, default=8)
    parser.add_argument("--max-nodes", type=int, default=6)
    parser.add_argument("--grid", type=int, default=5, help="deviation grid density")
    args = parser.parse_args()

    mechanisms = {"mc": mc_allocate, "shapley": shapley}
    tally: Counter[tuple[str, str, str]] = Counter()
    internal_nodes: Counter[int] = Counter()
    unexpected = []
    for seed in range(args.start, args.start + args.seeds):
        net = random_network(seed, max_nodes=args.max_nodes, max_edges=args.max_edges)
        internal_nodes[len(net.nodes) - 2] += 1
        for name, fn in mechanisms.items():
            for prop in CLEAN[name]:
                for report in AUDITS[prop](net, fn, None, args.grid):
                    tally[(name, report.property, report.verdict)] += 1
                    if report.verdict == "violation":
                        unexpected.append((seed, name, report))

    print(f"{'mechanism':<10} {'property':<8} {'verdict':<10} count")
    for (name, prop, verdict), count in sorted(tally.items()):
        print(f"{name:<10} {prop:<8} {verdict:<10} {count}")
    print(f"\n{'internal nodes':<14} graphs")
    for k, count in sorted(internal_nodes.items()):
        print(f"{k:<14} {count}")
    if unexpected:
        print(f"\n{len(unexpected)} unexpected violation(s); first witness:")
        seed, name, report = unexpected[0]
        print(f"  seed {seed}, mechanism {name}: {report.witness}")
        return 2
    print(f"\nno violations across {args.seeds} seeds")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
