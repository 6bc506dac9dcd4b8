"""The four benchmark workloads.

A workload is a fixed list of operations built from the seed (one *round*)
plus a checker.  The runner repeats whole rounds, so every run attempts the
same operations in the same proportions.  Operations look their target up
on the flowmech module at call time, so the traced run's wrappers are seen.

Checkers receive each operation's first-round output (later rounds are
compared with it by `same`) and return one failure message or None per
operation.  They import the oracles themselves, after the timed part.
"""

from __future__ import annotations

import io
import json
import os
import random
import re
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Optional

import flowmech
from flowmech import audits, cli, complementarity, game, mechanisms
from gen import layered_dag, random_networks_by_size, recapacitated

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@dataclass
class Op:
    label: str
    fn: Callable[[], Any]
    info: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    ops: list[Op]
    corpus: list[str]
    check: Callable[[list[Op], list[tuple[Any, Optional[BaseException]]]], list[Optional[str]]]
    same: Callable[[Any, Any], bool] = lambda a, b: a == b


def _net_shape(label: str, net) -> str:
    internal = len(net.nodes) - 2
    return f"{label}: {len(net.edges)} edges, {internal} internal nodes"


# ---------------------------------------------------------------------------
# audit-deep

#: (width, depth, extra edges): 14-17 edges, 8-10 internal nodes, so the
#: cut-splitting step two always has cuts to split.  The seed draws the
#: capacities only: the structure decides the number of minimal cuts, which
#: decides the cost, so a seed-drawn structure would make runs incomparable.
DAG_SHAPES = [(3, 3, 3), (3, 3, 5), (2, 4, 5), (2, 5, 4)]
#: mechanism -> the DAGs (by index) it is audited on.  A core-select audit
#: costs a tenth of an mc audit; on all four DAGs the median operation would
#: sit in the gap between the two halves and jump from run to run.
AUDITED_ON = {"mc": (0, 1, 2, 3), "core-select": (0, 2)}


def build_audit_deep(seed: int) -> Workload:
    ops: list[Op] = []
    corpus = []
    for k, (width, depth, extra) in enumerate(DAG_SHAPES):
        net = layered_dag(k, seed * 1000 + k, width, depth, extra)
        tag = f"dag{k}"
        corpus.append(_net_shape(f"{tag} {width}x{depth}+{extra}", net))
        for mech in (m for m, dags in AUDITED_ON.items() if k in dags):
            info = {"net": net, "mech": mech}
            alloc = mechanisms.MECHANISMS[mech].__name__
            ops.append(
                Op(f"{tag} {mech} allocate", lambda n=net, f=alloc: getattr(mechanisms, f)(n), {**info, "kind": "alloc"})
            )
            ops.append(Op(f"{tag} {mech} dsic", lambda n=net, m=mech: audits.check_dsic(n, m, None, grid_size=6), info))
            ops.append(Op(f"{tag} {mech} sir", lambda n=net, m=mech: audits.check_sir(n, m, None), info))
            for eid in net.edge_ids:
                ops.append(Op(f"{tag} {mech} sp {eid}", lambda n=net, m=mech, e=eid: audits.check_sp(n, m, None, e), info))
            for ea, eb in audits.parallel_pairs(net):
                ops.append(
                    Op(f"{tag} {mech} mp {ea},{eb}", lambda n=net, m=mech, a=ea, b=eb: audits.check_mp(n, m, None, a, b), info)
                )
            for eid in net.edge_ids:
                ops.append(Op(f"{tag} {mech} cm {eid}", lambda n=net, m=mech, e=eid: audits.check_cm(n, m, None, e), info))
    return Workload("audit-deep", ops, corpus, check_audit_deep)


def check_audit_deep(ops, outputs):
    import oracles

    flows: dict[int, Fraction] = {}
    cuts: dict[int, set] = {}
    cm_tally = {"reports": 0, "vacuous": 0, "oracle_judged": 0}
    out: list[Optional[str]] = []
    for op, (result, exc) in zip(ops, outputs):
        if exc is not None:
            out.append(f"raised {exc!r}")
            continue
        net, mech = op.info["net"], op.info["mech"]
        if id(net) not in flows:
            flows[id(net)] = oracles.max_flow_value(net, oracles.caps_of(net))
        flow = flows[id(net)]
        if op.info.get("kind") == "alloc":
            out.append(_check_allocation(net, mech, result, flow, oracles))
        elif mech != "mc":
            out.append(_check_verdict_consistent(result))
        elif result.verdict != "pass":
            out.append(f"mc {result.property} {result.verdict}: {result.witness}")
        elif result.property == "cm":
            if id(net) not in cuts:
                cuts[id(net)] = oracles.mc_cuts(net)
            out.append(_check_mc_cm(net, result, flow, cuts[id(net)], cm_tally, oracles))
        else:
            out.append(None)
    if cm_tally["reports"]:
        print(
            f"  mc cm: {cm_tally['vacuous']} of {cm_tally['reports']} reports judged no grid point;"
            f" the oracle judged cm for {cm_tally['oracle_judged']} of the edges at {CM_ORACLE_POINTS} points"
            f" below the critical value, and on the other {cm_tally['reports'] - cm_tally['oracle_judged']}"
            " a higher report cannot raise the max flow"
        )
    return out


#: points at which the oracle judges mc's cross monotonicity for one edge,
#: spread evenly up to its critical value
CM_ORACLE_POINTS = 3


def _check_mc_cm(net, report, flow, cuts, tally, oracles) -> Optional[str]:
    """An mc cm pass may judge none of its grid points, because the default
    grid can step past the edge's critical value.  So the trace is checked
    against the oracle's critical value, and the oracle judges cm itself at
    points where the max flow rises with the report."""
    tally["reports"] += 1
    trace = report.trace
    judged = trace.context["judged"]
    if not len(trace.grid) == len(trace.values) == len(judged):
        return "cm trace lengths disagree"
    caps = oracles.caps_of(net)
    edge = trace.edge
    base = caps[edge]
    gain = oracles.critical_gain(net, caps, edge)
    for raised, value, is_judged in zip(trace.grid, trace.values, judged):
        if value != flow + min(raised - base, gain):
            return f"cm trace gives max flow {value} at {edge} = {raised}; networkx disagrees"
        if is_judged != (raised - base <= gain):
            return f"cm trace judges {edge} = {raised} wrongly: the critical gain is {gain}"
    tally["vacuous"] += not any(judged)
    if gain == 0:
        return None
    tally["oracle_judged"] += 1
    before = oracles.mc_allocation(net, caps, cuts)
    for k in range(1, CM_ORACLE_POINTS + 1):
        raised = base + gain * k / CM_ORACLE_POINTS
        after = oracles.mc_allocation(net, {**caps, edge: raised}, cuts)
        hurt = [e for e in caps if e != edge and after[e] < before[e]]
        if hurt:
            return f"mc is not cross-monotone: raising {edge} to {raised} lowers the oracle payoff of {hurt[0]}"
    return None


def _check_allocation(net, mech, alloc, flow, oracles) -> Optional[str]:
    if sum(alloc.payoffs.values(), Fraction(0)) != flow or alloc.total != flow:
        return f"payoffs sum to {alloc.total}, max flow is {flow}"
    if mech == "mc":
        expected = oracles.mc_allocation(net)
        if alloc.payoffs != expected:
            return "mc payoffs differ from the oracle recomputation"
        return None
    caps = oracles.caps_of(net)
    paid = {eid for eid, q in alloc.payoffs.items() if q != 0}
    if any(alloc.payoffs[eid] != caps[eid] for eid in paid):
        return "core-select paid an edge other than its report"
    if not oracles.is_st_cut(net, paid):
        return "core-select paid edges do not form an s-t cut"
    return None


def _check_verdict_consistent(report) -> Optional[str]:
    if report.verdict not in ("pass", "violation", "not-tested"):
        return f"unknown verdict {report.verdict!r}"
    if report.property == "cm" and report.trace is not None:
        t = report.trace
        if not len(t.grid) == len(t.values) == len(t.context["judged"]):
            return "cm trace lengths disagree"
    if report.verdict != "violation":
        return None
    w = report.witness or {}
    if "gain" in w and not w["gain"] > 0:
        return f"{report.property} violation without a positive gain"
    if report.property == "cm" and not w["payoff_after"] < w["payoff_before"]:
        return "cm violation without a payoff drop"
    return None


# ---------------------------------------------------------------------------
# core-shapley

#: mostly 7-edge networks, so that a round holds over 100 operations
CORE_SIZES = [7] * 8 + [8] * 4 + [9] * 2 + [10]
#: core_bounds for every edge of a network up to this size (so the sums can be
#: checked), for the first and the last edge up to BOUNDS_UP_TO edges, and
#: for none above: one bound on 9 edges costs as much as six on 7 edges
ALL_BOUNDS_UP_TO = 7
BOUNDS_UP_TO = 8


def build_core_shapley(seed: int) -> Workload:
    ops: list[Op] = []
    corpus = []
    for k, (net_seed, shape) in enumerate(random_networks_by_size(CORE_SIZES, 6, 10)):
        net = recapacitated(shape, seed * 1000 + k)
        tag = f"net{k}"
        corpus.append(_net_shape(f"{tag} random_network({net_seed}, 6, 10) graph", net))
        info = {"net": net, "tag": tag}
        ops.append(Op(f"{tag} shapley maxflow-table", lambda n=net: mechanisms.shapley(n), {**info, "kind": "shapley"}))
        ops.append(
            Op(
                f"{tag} shapley cut-table",
                lambda n=net: mechanisms.shapley(n, cache=game.CharacteristicCache(n, method="cuts")),
                {**info, "kind": "shapley-cuts"},
            )
        )
        ops.append(Op(f"{tag} core_check nearest-cut", lambda n=net: _nearest_cut_core_check(n), {**info, "kind": "core-check"}))
        edges = list(net.edge_ids)
        if len(edges) > BOUNDS_UP_TO:
            edges = []
        elif len(edges) > ALL_BOUNDS_UP_TO:
            edges = [edges[0], edges[-1]]
        for eid in edges:
            ops.append(
                Op(f"{tag} core_bounds {eid}", lambda n=net, e=eid: mechanisms.core_bounds(n, None, e), {**info, "kind": "bounds", "edge": eid})
            )
    return Workload("core-shapley", ops, corpus, check_core_shapley)


def _nearest_cut_core_check(net):
    alloc = mechanisms.core_select_nearest_cut(net)
    return alloc, mechanisms.core_check(net, None, alloc)


def check_core_shapley(ops, outputs):
    import oracles

    tables: dict[str, Any] = {}
    by_tag: dict[str, dict] = {}
    for op, (result, exc) in zip(ops, outputs):
        slot = by_tag.setdefault(op.info["tag"], {"bounds": {}})
        if exc is None:
            if op.info["kind"] == "bounds":
                slot["bounds"][op.info["edge"]] = result
            else:
                slot[op.info["kind"]] = result
    out: list[Optional[str]] = []
    for op, (result, exc) in zip(ops, outputs):
        if exc is not None:
            out.append(f"raised {exc!r}")
            continue
        net, tag, kind = op.info["net"], op.info["tag"], op.info["kind"]
        if tag not in tables:
            tables[tag] = oracles.CoalitionTable(net)
        table, slot = tables[tag], by_tag[tag]
        out.append(_check_core_op(net, kind, op.info.get("edge"), result, table, slot))
    return out


def _check_core_op(net, kind, edge, result, table, slot) -> Optional[str]:
    if kind in ("shapley", "shapley-cuts"):
        if result.total != table.grand:
            return f"Shapley payoffs sum to {result.total}, v(N) is {table.grand}"
        other = slot.get("shapley-cuts" if kind == "shapley" else "shapley")
        if other is None or other.payoffs != result.payoffs:
            return "Shapley differs between the max-flow and the cut table"
        if table.n <= 8 and result.payoffs != table.shapley():
            return "Shapley differs from the permutation oracle"
        return None
    if kind == "core-check":
        alloc, verdict = result
        if not verdict.in_core:
            return f"nearest-cut allocation reported outside the core: {verdict}"
        if not table.in_core(alloc.payoffs):
            return "nearest-cut allocation is outside the oracle core"
        return None
    lo, hi = result
    if not lo <= hi:
        return f"core bounds of {edge} are inverted: {lo} > {hi}"
    if (lo, hi) != table.core_bounds(edge):
        return f"core bounds of {edge} differ from the exact LP: {(lo, hi)} vs {table.core_bounds(edge)}"
    nearest = slot.get("core-check")
    if nearest is not None and not lo <= nearest[0].payoffs[edge] <= hi:
        return f"nearest-cut payoff of {edge} lies outside its core bounds"
    bounds = slot["bounds"]
    if len(bounds) == table.n:
        if not sum(b[0] for b in bounds.values()) <= table.grand <= sum(b[1] for b in bounds.values()):
            return "core bounds do not bracket v(N)"
    return None


# ---------------------------------------------------------------------------
# pair-probe

#: the probe grid labels these pairs `degenerate` although the four-corner
#: sign is nonzero; they stay in every round and count as failed operations
KNOWN_GRID_FAULTS = (4, 138, 181)
#: the other pairs are the first ones of network seeds 1, 2, 3, ... with at
#: least two edges.  They are fixed, not drawn by the seed: the cost of one
#: classification varies 3-4x between networks of the same size, and when
#: the seed drew 97 of seeds 1..1000 the draw alone spread item_p90_ms by
#: 0.15 between seeds.  None of them meets the grid fault.
PAIRS_PER_ROUND = 97
#: fixture pairs whose Shapley comparative statics the probe checks
RELATION_PROBES = (("series", "e1", "e2"), ("fig3a", "e1", "e2"))
PROBE_SAMPLES = 10


def build_pair_probe(seed: int) -> Workload:
    """The seed sets the order of the operations and the sample seeds of
    the relation probes."""
    rng = random.Random(seed)
    chosen = [(s, flowmech.random_network(s, max_nodes=7, max_edges=9)) for s in KNOWN_GRID_FAULTS]
    s = 0
    while len(chosen) < PAIRS_PER_ROUND + len(KNOWN_GRID_FAULTS):
        s += 1
        net = flowmech.random_network(s, max_nodes=7, max_edges=9)
        if s not in KNOWN_GRID_FAULTS and len(net.edges) >= 2:
            chosen.append((s, net))
    rng.shuffle(chosen)
    ops: list[Op] = []
    corpus = []
    for s, net in chosen:
        i, j = net.edge_ids[0], net.edge_ids[-1]
        corpus.append(_net_shape(f"random_network({s}, 7, 9) pair ({i},{j})", net))
        ops.append(
            Op(
                f"classify seed {s} ({i},{j})",
                lambda n=net, a=i, b=j: complementarity.classify_complementarity(n, a, b),
                {"net": net, "pair": (i, j), "kind": "classify", "known_fault": s in KNOWN_GRID_FAULTS},
            )
        )
    for name, i, j in RELATION_PROBES:
        net = flowmech.load_fixture(name)
        probe_seed = rng.randrange(1 << 30)
        corpus.append(_net_shape(f"fixture {name} probe ({i},{j}) seed {probe_seed}", net))
        ops.append(
            Op(
                f"shapley_relation_probe {name} ({i},{j})",
                lambda n=net, a=i, b=j, ps=probe_seed: audits.shapley_relation_probe(n, a, b, sample_count=PROBE_SAMPLES, seed=ps),
                {"net": net, "pair": (i, j), "kind": "probe"},
            )
        )
    return Workload("pair-probe", ops, corpus, check_pair_probe)


def check_pair_probe(ops, outputs):
    import oracles

    out: list[Optional[str]] = []
    for op, (result, exc) in zip(ops, outputs):
        if exc is not None:
            out.append(f"raised {exc!r}")
            continue
        expected = oracles.four_corner_relation(op.info["net"], *op.info["pair"])
        if op.info["kind"] == "classify":
            got = result.relation.value
        elif result.verdict != "pass":
            out.append(f"relation probe verdict {result.verdict}: {result.witness}")
            continue
        elif result.witness["samples"] != PROBE_SAMPLES:
            out.append(f"relation probe judged {result.witness['samples']} samples")
            continue
        else:
            got = result.witness["relation"]
        out.append(None if got == expected else f"relation {got}, four-corner sign says {expected}")
    return out


# ---------------------------------------------------------------------------
# cli-fixtures

FIXTURES = (
    "converge", "diverge", "fig1", "fig2a", "fig2b", "fig3a",
    "fig3b", "fig4", "fig5", "fig9", "neither", "series",
)  # fmt: skip
CLI_COMMANDS = (
    ["validate"],
    ["maxflow"],
    ["cuts", "--oracle"],
    ["shapley"],
    ["mc"],
    ["core-select"],
    ["core-bounds"],
    ["core-check", "--mechanism", "mc"],
    ["audit", "all", "--mechanism", "mc"],
    ["audit", "all", "--mechanism", "shapley"],
    ["audit", "all", "--mechanism", "core-select"],
)
RAISED_FIG4 = os.path.join(ROOT, "perfbench", "inputs", "fig4-raised.net")
#: the paper's worked values: (command, file, payoff path, expected)
WORKED_VALUES = [
    (["shapley"], "fig2a", ("allocation", "payoffs", "e1"), "1/30"),
    (["shapley"], "fig2b", ("allocation", "payoffs", "e1_1"), "1/42"),
    (["shapley"], "fig3a", ("allocation", "payoffs", "e1"), "1/6"),
    (["shapley"], "fig3b", ("allocation", "payoffs", "e1+e2"), "1/2"),
    (["shapley"], "fig4", ("allocation", "payoffs", "e2"), "1/3"),
    (["shapley"], RAISED_FIG4, ("allocation", "payoffs", "e2"), "19/60"),
    (["maxflow"], RAISED_FIG4, ("value",), "11/10"),
    (["mc"], "fig5", ("allocation", "payoffs", "e3"), "1"),
    (["mc", "--no-stand-alone-step"], "fig5", ("allocation", "payoffs", "e3"), "5/6"),
    (["core-bounds"], "fig1", ("bounds",), {"e1": ["0", "0"], "e2": ["0", "0"], "e3": ["1", "1"], "e4": ["1", "1"]}),
]
_TIMESTAMP = re.compile(r'^\s*"timestamp": .*$', re.M)


def _fixture_path(name: str) -> str:
    return name if os.path.isabs(name) else os.path.join(ROOT, "fixtures", f"{name}.net")


def build_cli_fixtures(seed: int) -> Workload:
    jobs = [(cmd, name) for name in FIXTURES for cmd in CLI_COMMANDS]
    jobs += [(cmd, name) for cmd, name, _, _ in WORKED_VALUES if (cmd, name) not in jobs]
    # the seed fixes the order in which the commands run
    random.Random(seed).shuffle(jobs)
    ops: list[Op] = []
    corpus = []
    for name in FIXTURES + (RAISED_FIG4,):
        with open(_fixture_path(name), encoding="utf-8") as fh:
            net = flowmech.parse_network(fh.read())
        corpus.append(_net_shape(os.path.basename(name), net))
    for cmd, name in jobs:
        path = _fixture_path(name)
        argv = [cmd[0], path, *cmd[1:], "--format", "json"]
        if cmd[:2] == ["audit", "all"]:
            argv = ["audit", "all", path, *cmd[2:], "--format", "json"]
        ops.append(Op(" ".join([*cmd, os.path.basename(name)]), lambda a=argv: _run_cli(a), {"cmd": cmd, "name": name, "argv": argv}))
    return Workload("cli-fixtures", ops, corpus, check_cli_fixtures, same=_same_document)


def _run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        status = cli.main(list(argv))
    return status, buf.getvalue()


def _same_document(a, b) -> bool:
    return a[0] == b[0] and _TIMESTAMP.sub("", a[1]) == _TIMESTAMP.sub("", b[1])


class _FloatLiteral(ValueError):
    pass


def parse_document(text: str) -> dict:
    """json.loads that refuses every floating-point literal."""

    def refuse(token):
        raise _FloatLiteral(f"float literal {token} in the document")

    return json.loads(text, parse_float=refuse, parse_constant=refuse)


def check_cli_fixtures(ops, outputs):
    import oracles

    nets: dict[str, Any] = {}
    docs: dict[tuple, dict] = {}
    out: list[Optional[str]] = []
    parsed = []
    for op, (result, exc) in zip(ops, outputs):
        doc = None
        if exc is None:
            try:
                doc = parse_document(result[1])
            except ValueError as err:
                doc = err
            else:
                docs[(tuple(op.info["cmd"]), op.info["name"])] = doc
        parsed.append(doc)
    for op, (result, exc), doc in zip(ops, outputs, parsed):
        if exc is not None:
            out.append(f"raised {exc!r}")
            continue
        if isinstance(doc, ValueError):
            out.append(f"document does not parse: {doc}")
            continue
        name = op.info["name"]
        if name not in nets:
            with open(_fixture_path(name), encoding="utf-8") as fh:
                nets[name] = flowmech.parse_network(fh.read())
        try:
            out.append(_check_cli_doc(op.info["cmd"], name, nets[name], result[0], doc, docs, oracles))
        except (KeyError, TypeError, ValueError) as err:
            out.append(f"malformed document: {err!r}")
    return out


def _q(text) -> Fraction:
    if not isinstance(text, str):
        raise TypeError(f"expected a rational string, got {text!r}")
    return Fraction(text)


def _check_cli_doc(cmd, name, net, status, doc, docs, oracles) -> Optional[str]:
    if doc.get("tool") != "flowmech" or doc.get("exit_status") != status:
        return f"exit status {status} vs document {doc.get('exit_status')}"
    res = doc["results"]
    caps = oracles.caps_of(net)
    flow = oracles.max_flow_value(net, caps)
    for wcmd, wname, path, expected in WORKED_VALUES:
        if wcmd == cmd and wname == name:
            got = res
            for key in path:
                got = got[key]
            if got != expected:
                return f"worked value {'/'.join(path)} is {got}, the paper has {expected}"
    head = cmd[0]
    if head == "validate":
        return None if res["validation"]["ok"] and status == 0 else "fixture failed validation"
    if status not in (0, 2) or (status == 2 and head not in ("core-check", "audit")):
        return f"exit status {status}"
    if head == "maxflow":
        return None if _q(res["value"]) == flow else f"max flow {res['value']}, networkx says {flow}"
    if head == "cuts":
        got = {frozenset(m) for m, _ in res["cuts"]}
        if got != oracles.minimal_cuts(net):
            return "minimal cuts differ from the oracle enumeration"
        if any(_q(c) != sum((caps[e] for e in m), Fraction(0)) for m, c in res["cuts"]):
            return "a cut capacity is not the sum of its members"
        return None if _q(res["flow_value"]) == flow else "cut flow value differs from networkx"
    if head in ("shapley", "mc", "core-select"):
        pay = {k: _q(v) for k, v in res["allocation"]["payoffs"].items()}
        if sum(pay.values(), Fraction(0)) != flow or _q(res["allocation"]["total"]) != flow:
            return f"payoffs do not sum to the max flow {flow}"
        if head == "shapley" and len(caps) <= 8 and pay != oracles.CoalitionTable(net).shapley():
            return "Shapley differs from the permutation oracle"
        if cmd == ["mc"] and pay != oracles.mc_allocation(net):
            return "mc payoffs differ from the oracle recomputation"
        if head == "core-select":
            paid = {k for k, v in pay.items() if v != 0}
            if any(pay[k] != caps[k] for k in paid) or not oracles.is_st_cut(net, paid):
                return "core-select paid edges are not an s-t cut paid their reports"
        return None
    if head == "core-bounds":
        table = oracles.CoalitionTable(net)
        bounds = {k: (_q(lo), _q(hi)) for k, (lo, hi) in res["bounds"].items()}
        for eid, b in bounds.items():
            if b != table.core_bounds(eid):
                return f"core bounds of {eid} differ from the exact LP"
        if not sum(b[0] for b in bounds.values()) <= flow <= sum(b[1] for b in bounds.values()):
            return "core bounds do not bracket v(N)"
        return None
    if head == "core-check":
        mc_doc = docs.get((("mc",), name))
        if mc_doc is None:
            return "no mc document to compare with"
        pay = {k: _q(v) for k, v in mc_doc["results"]["allocation"]["payoffs"].items()}
        expected = oracles.CoalitionTable(net).in_core(pay)
        if res["core"]["in_core"] != expected or (status == 0) != expected:
            return f"core membership {res['core']['in_core']}, oracle says {expected}"
        return None
    if head == "audit":
        verdicts = [a["verdict"] for a in res["audits"]]
        if cmd[-1] == "mc" and any(v != "pass" for v in verdicts):
            return f"mc audit verdicts {verdicts}"
        if (status == 2) != ("violation" in verdicts):
            return "exit status does not match the verdicts"
        return None
    return f"unchecked command {cmd}"


BUILDERS = {
    "audit-deep": build_audit_deep,
    "core-shapley": build_core_shapley,
    "pair-probe": build_pair_probe,
    "cli-fixtures": build_cli_fixtures,
}
