#!/usr/bin/env python3
"""Show that every workload's checker can fail.

    python3 perfbench/check_checkers.py

Runs one round of each workload (untimed, seed 1), confirms that its checker
accepts the real outputs apart from known faults, then feeds it outputs
with one deliberate error each and confirms that it rejects every one:

- audit-deep: an mc payoff moved by 1/1000 from one edge to another, the
  same for a core-select payoff, and an mc cm report that judges its first
  grid point wrongly;
- core-shapley: a Shapley payoff moved by 1/1000 on both coalition tables,
  and a core lower bound lowered by 1/1000;
- pair-probe: a complementary pair relabelled substitutable, and the other
  way round;
- cli-fixtures: a float literal in a JSON document, and a payoff in a
  Shapley document moved by 1/1000 (on a fixture with no worked value).

Exits 1 if a checker rejects a correct output or accepts a wrong one.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402
from flowmech import Relation  # noqa: E402

DELTA = Fraction(1, 1000)
SEED = 1


def one_round(wl):
    outputs = []
    for op in wl.ops:
        try:
            outputs.append((op.fn(), None))
        except Exception as exc:
            outputs.append((None, exc))
    return outputs


def shifted(payoffs: dict, donor: str, taker: str) -> dict:
    out = dict(payoffs)
    out[donor] -= DELTA
    out[taker] += DELTA
    return out


def find(wl, outputs, pred):
    for k, (op, (result, exc)) in enumerate(zip(wl.ops, outputs)):
        if exc is None and pred(op, result):
            return k
    raise LookupError(f"{wl.name}: no operation to mutate")


def mutations(wl, outputs):
    """(description, op index, {op index: wrong output}) for one workload;
    the checker's verdict on the first index is the one that must fail."""
    if wl.name == "audit-deep":
        for mech in ("mc", "core-select"):
            k = find(wl, outputs, lambda op, r, m=mech: op.info.get("kind") == "alloc" and op.info["mech"] == m)
            alloc = outputs[k][0]
            paid = [e for e, q in alloc.payoffs.items() if q > 0]
            wrong = dataclasses.replace(alloc, payoffs=shifted(alloc.payoffs, paid[0], paid[-1]))
            yield f"{mech} payoff off by 1/1000", k, {k: wrong}
        k = find(wl, outputs, lambda op, r: op.info["mech"] == "mc" and getattr(r, "property", None) == "cm")
        report = outputs[k][0]
        judged = list(report.trace.context["judged"])
        judged[0] = not judged[0]
        trace = dataclasses.replace(report.trace, context={**report.trace.context, "judged": tuple(judged)})
        yield "mc cm grid point judged wrongly", k, {k: dataclasses.replace(report, trace=trace)}
    elif wl.name == "core-shapley":
        # the same error on both tables, so that only the permutation oracle
        # and the efficiency check stand between it and a pass
        k = find(wl, outputs, lambda op, r: op.info["kind"] == "shapley")
        k2 = find(wl, outputs, lambda op, r, t=wl.ops[k].info["tag"]: op.info["kind"] == "shapley-cuts" and op.info["tag"] == t)
        alloc = outputs[k][0]
        edges = list(alloc.payoffs)
        wrong = dataclasses.replace(alloc, payoffs=shifted(alloc.payoffs, edges[0], edges[-1]))
        yield "Shapley payoff off by 1/1000 on both tables", k, {k: wrong, k2: wrong}
        k = find(wl, outputs, lambda op, r: op.info["kind"] == "bounds")
        lo, hi = outputs[k][0]
        yield "core lower bound off by 1/1000", k, {k: (lo - DELTA, hi)}
    elif wl.name == "pair-probe":
        flip = {Relation.COMPLEMENTARY: Relation.SUBSTITUTABLE, Relation.SUBSTITUTABLE: Relation.COMPLEMENTARY}
        for rel in flip:
            k = find(wl, outputs, lambda op, r, x=rel: op.info["kind"] == "classify" and r.relation is x)
            yield f"{rel.value} relation flipped", k, {k: dataclasses.replace(outputs[k][0], relation=flip[rel])}
    elif wl.name == "cli-fixtures":
        k = find(wl, outputs, lambda op, r: op.info["cmd"] == ["maxflow"])
        status, text = outputs[k][0]
        yield "float literal in a JSON document", k, {k: (status, text.replace('"exit_status": 0', '"exit_status": 0.0'))}
        # a fixture without a worked value, so that the oracle has to catch it
        k = find(wl, outputs, lambda op, r: op.info["cmd"] == ["shapley"] and op.info["name"] == "neither")
        status, text = outputs[k][0]
        doc = json.loads(text)
        pay = {e: Fraction(q) for e, q in doc["results"]["allocation"]["payoffs"].items()}
        doc["results"]["allocation"]["payoffs"] = {e: str(q) for e, q in shifted(pay, "e2", "e1").items()}
        yield "Shapley payoff off by 1/1000 in a JSON document", k, {k: (status, json.dumps(doc))}


def main() -> int:
    bad = 0
    for name, build in workloads.BUILDERS.items():
        wl = build(SEED)
        outputs = one_round(wl)
        verdicts = wl.check(wl.ops, outputs)
        wrongly_rejected = [
            op.label for op, v in zip(wl.ops, verdicts) if v is not None and not op.info.get("known_fault")
        ]
        if wrongly_rejected:
            bad += 1
            print(f"{name}: correct outputs rejected: {wrongly_rejected}")
        for what, k, wrong in mutations(wl, outputs):
            mutated = list(outputs)
            for index, value in wrong.items():
                mutated[index] = (value, None)
            message = wl.check(wl.ops, mutated)[k]
            if message is None:
                bad += 1
            print(f"{name}: {what} ({wl.ops[k].label}): {'rejected: ' + message if message else 'ACCEPTED'}")
    print("every checker rejects every deliberate error" if not bad else f"{bad} problem(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
