import importlib.util
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

import pytest

from flowmech import (
    CharacteristicCache,
    Edge,
    FlowNetwork,
    FlowResult,
    as_rational,
    PairKind,
    PairStructure,
    Relation,
    enumerate_minimal_cuts,
    load_fixture,
    max_flow,
    mc_allocate,
    merge_parallel,
    minimal_cuts_bruteforce,
    parallel_pairs,
    parse_network,
    random_network,
    resolve_reports,
    split_edge,
    validate,
)
from flowmech.cuts import UNBOUNDED as CV_UNBOUNDED
from flowmech.cuts import critical_value
from flowmech.audits import AuditReport, DeviationWitness, SweepTrace, _Profile
from flowmech.mechanisms import _payoffs
from flowmech.network import _blocks


def flow_value_via_cuts(net, reports=None) -> Fraction:
    """Independent max-flow oracle: the cheapest brute-forced minimal cut."""
    family = minimal_cuts_bruteforce(net, reports)
    if not family.cuts:
        return Fraction(0)
    return min(family.cut_capacities)


def is_essential(net, reports, edge_id) -> bool:
    """Reference for essentiality: an edge is essential when lowering its
    report would lower the max flow, that is, when its report does not
    exceed its critical value.  The flow as a function of the edge's report
    x is F(0) + min(x, critical value), so the edge is essential exactly
    when the public `max_flow` rises one for one from report 0 to its
    report."""
    caps = resolve_reports(net, reports)
    at_zero = max_flow(net, {**caps, edge_id: 0}).value
    return max_flow(net, caps).value - at_zero == caps[edge_id]


def sweep_payoff(sweep, r) -> Fraction:
    """A sweep's own payoff at the report r, from its scaled answer."""
    return Fraction(*sweep.scaled_payoff(r.numerator, r.denominator))


def sweep_payoffs(net, sweep, r) -> dict[str, Fraction]:
    """A sweep's allocation at the report r, from its scaled answer, as the
    payoffs in edge order."""
    return _payoffs(net, *sweep.scaled_allocation(r.numerator, r.denominator))


def sweep_split_payoff(sweep, qa, qb) -> Fraction:
    """A sweep's split payoff at the parts qa and qb, from its scaled answer."""
    d = qa.denominator * qb.denominator
    return Fraction(*sweep.scaled_split_payoff(qa.numerator * qb.denominator, qb.numerator * qa.denominator, d))


def strip_terminal_edges(net) -> FlowNetwork:
    """The network without its direct source-to-sink edges."""
    return net.without_edges(net.terminal_edge_ids())


def difference_quotient(net, i, j, x, y, a, b, rest=None) -> Fraction:
    """(F(x+a,y+b) - F(x+a,y) - F(x,y+b) + F(x,y)) / (a*b), with F the
    public `max_flow` value under overrides of the two edges' capacities and
    every other capacity taken from `rest` (default: the true ones)."""
    caps = resolve_reports(net, rest)
    x, y, a, b = map(Fraction, (x, y, a, b))

    def F(p, q):
        return max_flow(net, {**caps, i: p, j: q}).value

    return (F(x + a, y + b) - F(x + a, y) - F(x, y + b) + F(x, y)) / (a * b)


#: the relation each pattern of `structural_pattern` implies at every
#: configuration of the other capacities
STRUCTURAL_RELATION = {
    "series": Relation.COMPLEMENTARY,
    "disjoint-terminal": Relation.COMPLEMENTARY,
    "parallel": Relation.SUBSTITUTABLE,
    "common-tail": Relation.SUBSTITUTABLE,
    "common-head": Relation.SUBSTITUTABLE,
}


def reachable_reference(start, arcs) -> set:
    """Reference for `network.reach` over named nodes: the nodes reachable
    from `start` along directed (tail, head) arcs."""
    adj = {}
    for tail, head in arcs:
        adj.setdefault(tail, []).append(head)
    seen = {start}
    stack = [start]
    while stack:
        node = stack.pop()
        for nxt in adj.get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def on_path_arcs_reference(arcs, source, sink) -> list[bool]:
    """Reference for `network._on_path` over named arcs: for each (tail,
    head) arc, whether it lies on a source-sink path."""
    forward = reachable_reference(source, arcs)
    backward = reachable_reference(sink, [(v, u) for u, v in arcs])
    return [u in forward and v in backward for u, v in arcs]


def blocks_reference(net) -> list[int]:
    """Reference for `network._blocks` over named nodes: the edge masks of
    the connected components of the graph with the terminals deleted, an
    edge between the terminals a block of its own, ascending."""
    terminals = (net.source, net.sink)
    both_ways = []
    for e in net.edges:
        if e.tail not in terminals and e.head not in terminals:
            both_ways += ((e.tail, e.head), (e.head, e.tail))
    block_of = {}
    masks = []
    for k, e in enumerate(net.edges):
        node = e.head if e.tail in terminals else e.tail
        if node in terminals:
            masks.append(1 << k)
        elif node in block_of:
            masks[block_of[node]] |= 1 << k
        else:
            block_of.update(dict.fromkeys(reachable_reference(node, both_ways), len(masks)))
            masks.append(1 << k)
    return sorted(masks)


def parallel_pairs_reference(net) -> list[tuple[str, str]]:
    """Reference for `parallel_pairs`: every two edges with the same tail
    and head, found by a pairwise scan in edge order."""
    pairs = []
    for a, ea in enumerate(net.edges):
        for eb in net.edges[a + 1:]:
            if (ea.tail, ea.head) == (eb.tail, eb.head):
                pairs.append((ea.id, eb.id))
    return pairs


def max_flow_fraction_reference(net, reports=None) -> FlowResult:
    """Reference for `max_flow`: the same shortest-augmenting-path descent
    and tie-break, run directly in Fraction arithmetic on per-call arc
    lists.  The library's integer routine must reproduce its value, witness
    flow and source side exactly."""
    caps = resolve_reports(net, reports)
    s, t = net.source, net.sink
    arcs_from = {n: [] for n in net.nodes}
    arcs_into = {n: [] for n in net.nodes}
    for e in net.edges:
        if caps[e.id] <= 0:
            continue
        arcs_from[e.tail].append(((e.id, 0), e.id, 0, e.head))
        arcs_into[e.head].append((e.id, 0, e.tail))
        arcs_from[e.head].append(((e.id, 1), e.id, 1, e.tail))
        arcs_into[e.tail].append((e.id, 1, e.head))
    for u in arcs_from:
        arcs_from[u].sort()
    flow = {e.id: Fraction(0) for e in net.edges}

    def avail(eid, direction):
        return caps[eid] - flow[eid] if direction == 0 else flow[eid]

    while True:
        dist = {t: 0}
        frontier = [t]
        while frontier:
            nxt = []
            for v in frontier:
                for eid, direction, tail in arcs_into[v]:
                    if tail not in dist and avail(eid, direction) > 0:
                        dist[tail] = dist[v] + 1
                        nxt.append(tail)
            frontier = nxt
        if s not in dist:
            break
        path = []
        u = s
        while u != t:
            for _key, eid, direction, head in arcs_from[u]:
                if avail(eid, direction) > 0 and dist.get(head) == dist[u] - 1:
                    path.append((eid, direction))
                    u = head
                    break
            else:
                raise AssertionError("level graph dead end")
        bottleneck = min(avail(eid, d) for eid, d in path)
        for eid, d in path:
            flow[eid] += bottleneck if d == 0 else -bottleneck

    value = sum((flow[e.id] for e in net.edges if e.tail == s), Fraction(0)) - sum(
        (flow[e.id] for e in net.edges if e.head == s), Fraction(0)
    )
    seen = {s}
    stack = [s]
    while stack:
        u = stack.pop()
        for _key, eid, direction, head in arcs_from[u]:
            if head not in seen and avail(eid, direction) > 0:
                seen.add(head)
                stack.append(head)
    return FlowResult(value, flow, frozenset(seen))


class GridDichotomyError(AssertionError):
    """Difference quotients of both signs at one configuration, which
    max-flow cannot show: the grid reference below found a defect."""


def classify_by_grid_reference(net, i, j, rest=None) -> Relation:
    """Reference for `classify_complementarity`: the difference quotient
    (F(x+a,y+b) - F(x+a,y) - F(x,y+b) + F(x,y)) / (a*b) probed over a
    deterministic grid of base levels and steps at one configuration, with
    F the public `max_flow` under the two overrides.  A grid probe sees a
    kink of F only if it lies strictly inside the step, so the grid may say
    `degenerate` where the closed form does not; wherever its sign is
    nonzero the two must agree.  Quotients of both signs at one
    configuration cannot happen for max-flow and raise `GridDichotomyError`."""
    caps = resolve_reports(net, rest)
    memo = {}

    def F(x, y):
        if (x, y) not in memo:
            memo[x, y] = max_flow(net, {**caps, i: x, j: y}).value
        return memo[x, y]

    levels = {Fraction(0)}
    for eid in (i, j):
        levels.add(caps[eid] / 2)
        levels.add(caps[eid])
    levels.add(caps[i] + caps[j])
    levels.add(sum(caps.values(), Fraction(0)))
    positive = [q for q in caps.values() if q > 0]
    steps = {Fraction(1)}
    if positive:
        steps.add(min(positive) / 2)
    has_pos = has_neg = False
    for x in sorted(levels):
        for y in sorted(levels):
            for a in sorted(steps):
                for b in sorted(steps):
                    q = (F(x + a, y + b) - F(x + a, y) - F(x, y + b) + F(x, y)) / (a * b)
                    has_pos = has_pos or q > 0
                    has_neg = has_neg or q < 0
    if has_pos and has_neg:
        raise GridDichotomyError(f"pair ({i}, {j}) showed quotients of both signs at one configuration")
    if has_pos:
        return Relation.COMPLEMENTARY
    if has_neg:
        return Relation.SUBSTITUTABLE
    return Relation.DEGENERATE


#: statuses of the reference LP solver, the same strings as `flowmech.simplex`'s
OPTIMAL, INFEASIBLE, UNBOUNDED = "optimal", "infeasible", "unbounded"


@dataclass(frozen=True)
class ReferenceLPResult:
    status: str
    value: Optional[Fraction]
    solution: Optional[list[Fraction]]


def solve_standard_form_fraction_reference(A, b, c):
    """Reference for `simplex.solve_standard_form`: a two-phase simplex
    with Bland's rule, run directly on a Fraction tableau from artificial
    columns, so it needs no starting basis and takes rational input.  The
    library's solver, started from a feasible basis, must reach its status
    and optimal value exactly."""
    m = len(A)
    n = len(c)
    rows = [[Fraction(x) for x in row] for row in A]
    rhs = [Fraction(x) for x in b]
    for i in range(m):
        if len(rows[i]) != n:
            raise ValueError("A and c have inconsistent widths")
        if rhs[i] < 0:
            rows[i] = [-x for x in rows[i]]
            rhs[i] = -rhs[i]

    def price_out(tableau, basis, cost):
        n_cols = len(tableau[0]) - 1
        if len(tableau) == len(basis):
            tableau.append([Fraction(0)] * (n_cols + 1))
        z = tableau[-1]
        for j in range(n_cols + 1):
            z[j] = -cost[j] if j < len(cost) else Fraction(0)
        for i, var in enumerate(basis):
            coeff = cost[var] if var < len(cost) else Fraction(0)
            if coeff != 0:
                for j in range(n_cols + 1):
                    z[j] += coeff * tableau[i][j]

    def pivot(tableau, basis, row, col):
        prow = tableau[row]
        p = prow[col]
        for j in range(len(prow)):
            prow[j] /= p
        for i, other in enumerate(tableau):
            if i != row and other[col] != 0:
                factor = other[col]
                for j in range(len(other)):
                    other[j] -= factor * prow[j]
        basis[row] = col

    def pivot_until_optimal(tableau, basis, width):
        z = tableau[-1]
        while True:
            entering = next((j for j in range(width) if z[j] < 0), None)
            if entering is None:
                return OPTIMAL
            ratio = leaving = None
            for i in range(len(basis)):
                coeff = tableau[i][entering]
                if coeff > 0:
                    r = tableau[i][-1] / coeff
                    if ratio is None or r < ratio or (r == ratio and basis[i] < basis[leaving]):
                        ratio, leaving = r, i
            if leaving is None:
                return UNBOUNDED
            pivot(tableau, basis, leaving, entering)

    tableau = [rows[i] + [Fraction(int(k == i)) for k in range(m)] + [rhs[i]] for i in range(m)]
    basis = [n + i for i in range(m)]
    price_out(tableau, basis, [Fraction(0)] * n + [Fraction(-1)] * m)
    status = pivot_until_optimal(tableau, basis, width=n + m)
    if status != OPTIMAL or tableau[-1][-1] != 0:
        return ReferenceLPResult(INFEASIBLE, None, None)
    keep_rows = []
    for i in range(m):
        if basis[i] >= n:
            pivot_col = next((j for j in range(n) if tableau[i][j] != 0), None)
            if pivot_col is None:
                continue
            pivot(tableau, basis, i, pivot_col)
        keep_rows.append(i)
    tableau = [[tableau[i][j] for j in range(n)] + [tableau[i][-1]] for i in keep_rows]
    basis = [basis[i] for i in keep_rows]
    tableau.append([Fraction(0)] * (n + 1))
    price_out(tableau, basis, [Fraction(x) for x in c])
    if pivot_until_optimal(tableau, basis, width=n) == UNBOUNDED:
        return ReferenceLPResult(UNBOUNDED, None, None)
    solution = [Fraction(0)] * n
    for i, var in enumerate(basis):
        solution[var] = tableau[i][-1]
    return ReferenceLPResult(OPTIMAL, tableau[-1][-1], solution)


# ---------------------------------------------------------------------------
# Fraction-judging references for the audits, which judge in scaled integers


def best_deviation_fraction_reference(net, mechanism, player, others_reports=None, grid_size=8):
    """Reference for `audits.best_deviation`: the same search with every
    candidate a Fraction in a set, sorted as Fractions, and every payoff a
    Fraction built from the sweep's scaled payoff, compared as Fractions."""
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    cap = net.edge(player).cap
    profile = _Profile.of(net, mechanism, others_reports)
    others = profile.caps
    candidates = {k * cap / grid_size for k in range(1, grid_size + 1)}
    if not net.is_terminal_edge(player):
        cv = profile.critical_value(player)
        if 0 < cv <= cap:
            candidates.add(cv)
    for eid, q in others.items():
        if eid != player and 0 < q <= cap:
            candidates.add(q)
    sweep = profile.along(player)
    truthful = sweep_payoff(sweep, cap)
    best_report, best_payoff = cap, truthful
    candidates.discard(cap)
    for report in sorted(candidates):
        got = sweep_payoff(sweep, report)
        if got > best_payoff:
            best_report, best_payoff = report, got
    return DeviationWitness(
        player=player,
        truthful_payoff=truthful,
        best_report=best_report,
        best_payoff=best_payoff,
        gain=best_payoff - truthful,
        others_reports={eid: q for eid, q in others.items() if eid != player},
    )


def check_sp_fraction_reference(net, mechanism, reports, edge_id, split_grid=None):
    """Reference for `audits.check_sp`, judged in Fractions."""
    profile = _Profile.of(net, mechanism, reports)
    report = profile.caps[edge_id]
    grid = (
        [(as_rational(a), as_rational(b)) for a, b in split_grid]
        if split_grid is not None
        else [(report / 2 - k * report / 8, report / 2 + k * report / 8) for k in range(4)]
    )
    for qa, qb in grid:
        if qa < 0 or qb < 0:
            raise ValueError("split parts must be >= 0")
        if qa + qb != report:
            raise ValueError(f"split parts {qa} + {qb} must add up to the report {report}")
    grid = [(qa, qb) for qa, qb in grid if qa and qb]
    if not grid:
        witness = {"edge": edge_id, "reason": "no split point with both parts > 0"}
        return AuditReport("sp", profile.name, "not-tested", witness=witness)
    before = profile.allocation.payoffs[edge_id]
    points = profile.along(edge_id)
    for qa, qb in grid:
        after = sweep_split_payoff(points, qa, qb)
        if after > before:
            witness = {"edge": edge_id, "split": (qa, qb), "payoff_before": before, "payoff_after": after, "gain": after - before}
            return AuditReport("sp", profile.name, "violation", witness=witness)
    return AuditReport("sp", profile.name, "pass")


def check_mp_fraction_reference(net, mechanism, reports, edge_a, edge_b):
    """Reference for `audits.check_mp`, judged in Fractions."""
    profile = _Profile.of(net, mechanism, reports)
    alloc = profile.allocation
    before = alloc.payoffs[edge_a] + alloc.payoffs[edge_b]
    after = Fraction(*profile.along(edge_a).scaled_merged_payoff(edge_b))
    if after > before:
        witness = {"edges": (edge_a, edge_b), "payoff_before": before, "payoff_after": after, "gain": after - before}
        return AuditReport("mp", profile.name, "violation", witness=witness)
    return AuditReport("mp", profile.name, "pass")


def check_cm_fraction_reference(net, mechanism, reports, edge_id, increase_grid=None):
    """Reference for `audits.check_cm`: every step, flow and room a
    Fraction, and every judged point's allocation compared with the base's
    as Fractions, built from the sweep's scaled allocations."""
    profile = _Profile.of(net, mechanism, reports)
    base = profile.caps[edge_id]
    span = max(base, Fraction(1))
    grid = (
        [as_rational(x) for x in increase_grid]
        if increase_grid is not None
        else [base + k * span / 6 for k in range(1, 7)]
    )
    if not grid:
        witness = {"edge": edge_id, "reason": "empty increase grid"}
        return AuditReport("cm", profile.name, "not-tested", witness=witness)
    scale = profile.scaled[0]
    if net.is_terminal_edge(edge_id):
        base_flow, room = Fraction(profile.base_flow, scale), None
    else:
        at_zero, beyond = (Fraction(flow, scale) for flow in profile.flows(edge_id))
        base_flow = min(beyond, at_zero + base)
        room = beyond - base_flow
    values, judged, violation, sweep = [], [], None, None
    for raised in grid:
        if raised <= base:
            raise ValueError(f"grid point {raised} does not increase the report {base}")
        step = raised - base
        is_judged = room is None or step <= room
        flow = base_flow + (step if is_judged else room)
        values.append(flow)
        judged.append(is_judged)
        if not is_judged or violation is not None:
            continue
        if sweep is None:
            base_alloc, sweep = profile.allocation, profile.along(edge_id)
        paid = sweep_payoffs(net, sweep, raised)
        for other in net.edge_ids:
            if other != edge_id and paid[other] < base_alloc.payoffs[other]:
                violation = {
                    "raised_edge": edge_id,
                    "from": base,
                    "to": raised,
                    "flow_before": base_flow,
                    "flow_after": flow,
                    "hurt_player": other,
                    "payoff_before": base_alloc.payoffs[other],
                    "payoff_after": paid[other],
                }
                break
    trace = SweepTrace(edge_id, tuple(grid), tuple(values), {"judged": tuple(judged), "base_flow": base_flow})
    return AuditReport("cm", profile.name, "pass" if violation is None else "violation", witness=violation, trace=trace)


#: the (width, depth, extra) shapes of the benchmark's `audit-deep` DAGs
AUDIT_DEEP_SHAPES = [(3, 3, 3), (3, 3, 5), (2, 4, 5), (2, 5, 4)]


def mixed_under_reports(net, seed=0):
    """Reports at or below the truth with mixed denominators and zeros:
    edge k reported at its truth times 1, 2/3, 0, 5/7 and 1/2, cycled from
    `seed`."""
    shares = (Fraction(1), Fraction(2, 3), Fraction(0), Fraction(5, 7), Fraction(1, 2))
    return {e.id: e.cap * shares[(k + seed) % 5] for k, e in enumerate(net.edges)}


def mc_via_bruteforce(net, reports=None) -> dict[str, Fraction]:
    """Recompute the cut-splitting allocation from the brute-force cut family."""
    caps = resolve_reports(net, reports)
    payoffs = {eid: Fraction(0) for eid in net.edge_ids}
    for eid in net.terminal_edge_ids():
        payoffs[eid] = caps[eid]
    remaining = strip_terminal_edges(net)
    rem_caps = {eid: caps[eid] for eid in remaining.edge_ids}
    family = minimal_cuts_bruteforce(remaining, rem_caps)
    if family.cuts:
        flow_value = min(family.cut_capacities)
        share = Fraction(flow_value, len(family.cuts))
        for M, total in zip(family.cuts, family.cut_capacities):
            for eid in M:
                payoffs[eid] += share * rem_caps[eid] / total
    return payoffs


def _json_network(edge_fields=None, **doc_fields) -> dict:
    """A two-edge JSON network document with some fields replaced."""
    edges = [{"id": "e1", "from": "s", "to": "a", "cap": "1"}, {"id": "e2", "from": "a", "to": "t", "cap": "1"}]
    edges[0].update(edge_fields or {})
    return {"edges": edges, "source": "s", "sink": "t", **doc_fields}


#: JSON network documents of the wrong types or shape, with the field or the
#: message each must name
BAD_JSON_NETWORKS = [
    pytest.param(_json_network({"from": ["s"]}), "'from'", id="list-from"),
    pytest.param(_json_network({"to": {"n": "a"}}), "'to'", id="object-to"),
    pytest.param(_json_network({"id": 1}), "'id'", id="int-id"),
    pytest.param(_json_network(source=["s"]), "'source'", id="list-source"),
    pytest.param(_json_network(sink=3), "'sink'", id="int-sink"),
    pytest.param(_json_network({"cap": {"a": 1}}), "capacity", id="object-cap"),
    pytest.param(_json_network(edges=5), "'edges'", id="int-edges"),
    pytest.param(_json_network(nodes="s"), "'nodes' must be a list of strings", id="string-nodes"),
    pytest.param(_json_network(nodes=[1]), "node id must be a string, got 1", id="int-node"),
    pytest.param(_json_network(edges=[1]), "edge #0 must be an object", id="int-edge"),
    pytest.param({"edges": [{"id": "e1", "from": "s", "to": "t"}]}, "edge #0 missing field 'cap'", id="no-cap"),
    pytest.param({"nodes": []}, "JSON document must be an object with an 'edges' field", id="no-edges"),
]


def load_benchmark_generator():
    """`perfbench/gen.py`, loaded by path and only read."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def corpus(count: int, start: int = 1, **kwargs):
    return [random_network(seed, **kwargs) for seed in range(start, start + count)]


def layered_dag(seed: int) -> FlowNetwork:
    """Seeded layered DAG with 4-7 internal nodes in 2-3 layers, at most 13
    edges and at least one parallel pair; sometimes a direct source-sink
    edge.  Every internal node has an edge in from the layer before and an
    edge out to the layer after, so every edge lies on a source-sink path.
    Capacities mix denominators (1, 2, 3, 4, 7), so cut totals differ."""
    rng = random.Random(seed)
    n_internal = rng.randint(4, 7)
    # two layers of 4 and 3 could need 14 edges with the parallel one
    depth = rng.randint(2, 3) if n_internal < 6 else 3
    layers = [[f"v{k}" for k in range(1, n_internal + 1)][i::depth] for i in range(depth)]
    arcs = [("s", v) for v in layers[0]] + [(v, "t") for v in layers[-1]]
    for upper, lower in zip(layers, layers[1:]):
        fed = set()
        for u in upper:
            v = rng.choice(lower)
            arcs.append((u, v))
            fed.add(v)
        arcs += [(rng.choice(upper), v) for v in lower if v not in fed]
    arcs.append(rng.choice(arcs))
    if len(arcs) < 13 and rng.random() < 0.3:
        arcs.append(("s", "t"))
    assert len(arcs) <= 13
    edges = tuple(
        Edge(f"e{k}", u, v, Fraction(rng.randint(1, 6), rng.choice((1, 2, 3, 4, 7))))
        for k, (u, v) in enumerate(arcs, start=1)
    )
    nodes = ("s", *(v for layer in layers for v in layer), "t")
    net = FlowNetwork(nodes, edges, "s", "t")
    assert validate(net).ok
    return net


def _sweep_points(net, caps, eid):
    """0, the base report, two new denominators, a point above the base,
    and the critical value with points below and above it."""
    points = {Fraction(0), caps[eid], Fraction(1, 7), Fraction(13, 11), 2 * caps[eid] + 1}
    cv = critical_value(net, caps, eid)
    if cv is not CV_UNBOUNDED:
        points |= {cv / 2, cv, cv + Fraction(1, 3)}
    return sorted(points)


def assert_sweep_is_mc_allocate(net, reports=None, sweep_of=None):
    """Every edge's `McSweep` equals `mc_allocate` at every point (the same
    payoffs in the same key order), its split payoffs
    equal the pair's on the split network, on the edge's report and off it,
    with new denominators and with a part at 0, and its merged payoffs the
    merged edge's on the merged network, from either edge of the pair.
    `sweep_of(edge_id)` gives the sweep; by default the view that an `mc`
    profile of the reports keeps, the one the audits read."""
    caps = resolve_reports(net, reports)
    sweep_of = sweep_of or _Profile.of(net, "mc", caps).along
    for eid in net.edge_ids:
        sweep = sweep_of(eid)
        for r in _sweep_points(net, caps, eid):
            want = mc_allocate(net, {**caps, eid: r})
            got = sweep_payoffs(net, sweep, r)
            assert (got, list(got)) == (want.payoffs, list(want.payoffs)), (eid, r)
            assert sweep_payoff(sweep, r) == want.payoffs[eid], (eid, r)
        b = caps[eid]
        for qa, qb in [(b / 2, b / 2), (b / 7, 6 * b / 7), (Fraction(1, 5), Fraction(2, 3)), (Fraction(0), Fraction(3, 2))]:
            split_net, split_reports, (a, c) = split_edge(net, {**caps, eid: qa + qb}, eid, qa, qb)
            want = mc_allocate(split_net, split_reports)
            assert sweep_split_payoff(sweep, qa, qb) == want.payoffs[a] + want.payoffs[c], (eid, qa, qb)
    for pair in parallel_pairs(net):
        for a, b in (pair, pair[::-1]):
            merged_net, merged_reports, merged = merge_parallel(net, caps, a, b)
            merged_payoff = Fraction(*sweep_of(a).scaled_merged_payoff(b))
            assert merged_payoff == mc_allocate(merged_net, merged_reports)[merged], (a, b)


def deep_instances(net):
    """(network, reports) pairs for one layered DAG: truthful reports;
    reports with denominators 3, 7 and 4 cycled over the edges; the same
    with every third edge reported 0; and, with the mixed reports, the
    network after splitting its first edge 1:2 and after merging its first
    parallel pair."""
    mixed = (Fraction(1, 3), Fraction(2, 7), Fraction(5, 4))
    reports = {eid: mixed[k % 3] for k, eid in enumerate(net.edge_ids)}
    zeroed = {eid: (Fraction(0) if k % 3 == 1 else q) for k, (eid, q) in enumerate(reports.items())}
    first = net.edge_ids[0]
    split_net, split_reports, _ = split_edge(net, reports, first, reports[first] / 3, reports[first] * 2 / 3)
    merged_net, merged_reports, _ = merge_parallel(net, reports, *parallel_pairs(net)[0])
    return [
        (net, None),
        (net, reports),
        (net, zeroed),
        (split_net, split_reports),
        (merged_net, merged_reports),
    ]


@pytest.fixture(scope="session")
def deep_corpus():
    """Seeded layered DAGs deep enough that the cut-splitting step two has
    several cuts to split (the random_network corpora have at most two
    internal nodes)."""
    return [layered_dag(seed) for seed in range(1, 31)]


def join_at_terminals(*nets, direct=Fraction(1)) -> FlowNetwork:
    """The networks side by side with their sources and sinks merged into s
    and t, plus a direct s-t edge of capacity `direct`.  The i-th network's
    other nodes and its edges get the prefix "p<i>_"."""
    nodes, edges = ["s"], []
    for i, net in enumerate(nets):
        rename = {net.source: "s", net.sink: "t"}
        for v in net.nodes:
            rename.setdefault(v, f"p{i}_{v}")
        nodes += [rename[v] for v in net.nodes if rename[v] not in ("s", "t")]
        edges += [Edge(f"p{i}_{e.id}", rename[e.tail], rename[e.head], e.cap) for e in net.edges]
    edges.append(Edge("st", "s", "t", direct))
    net = FlowNetwork((*nodes, "t"), tuple(edges), "s", "t")
    assert validate(net).ok
    return net


#: three two-edge paths side by side plus a direct edge: four blocks, three
#: of them non-trivial, in 7 edges, which the permutation oracle can afford
THREE_PATHS = """
edge a1 s u 1
edge a2 u t 2/3
edge b1 s v 3/2
edge b2 v t 1
edge c1 s w 2
edge c2 w t 1/3
edge d s t 1
"""


@pytest.fixture(scope="session")
def block_corpus():
    """Networks of several source-sink blocks: fig5, the multi-block
    `random_network(s, 7, 9)` for s = 1..60, THREE_PATHS, and two layered
    DAGs of two blocks each joined with a direct edge (15 edges, five
    blocks)."""
    randoms = [random_network(seed, 7, 9) for seed in range(1, 61)]
    return (
        [load_fixture("fig5")]
        + [net for net in randoms if len(_blocks(net)) > 1]
        + [parse_network(THREE_PATHS), join_at_terminals(layered_dag(2), layered_dag(19))]
    )


@pytest.fixture(scope="session")
def mixed_report_corpus(deep_corpus):
    """(network, reports) pairs: `random_network(s)` for s = 1..200 (parallel
    and direct source-sink edges among them) with reports of denominators
    1, 2, 3, 4 and 7 cycled over the edges, one in five at 0; fig5,
    THREE_PATHS and two joined layered DAGs, which have direct edges, at
    their true capacities and with every third edge at 0; and every
    `deep_instances` pair of the deep DAGs, split and merged ones included."""
    mixed = (Fraction(1, 3), Fraction(2, 7), Fraction(0), Fraction(5, 4), Fraction(3, 2))
    pairs = []
    for seed in range(1, 201):
        net = random_network(seed)
        pairs.append((net, {eid: mixed[(k + seed) % 5] for k, eid in enumerate(net.edge_ids)}))
    for net in (load_fixture("fig5"), parse_network(THREE_PATHS), join_at_terminals(layered_dag(2), layered_dag(19))):
        pairs += [(net, None), (net, {eid: 0 for eid in net.edge_ids[::3]})]
    return pairs + [pair for net in deep_corpus for pair in deep_instances(net)]


def critical_value_three_flows(net, reports, edge_id):
    """Reference for `critical_value` from three public `max_flow` values:
    the flow with the edge at the proxy B = 1 + the sum of all reports,
    minus the flow with the edge at 0, and UNBOUNDED when the flow still
    rises from B to B + 1."""
    caps = resolve_reports(net, reports)
    proxy = 1 + sum(caps.values())
    at_proxy = max_flow(net, {**caps, edge_id: proxy}).value
    if max_flow(net, {**caps, edge_id: proxy + 1}).value > at_proxy:
        return CV_UNBOUNDED
    return at_proxy - max_flow(net, {**caps, edge_id: 0}).value


def pair_structure_reference(net, reports, e1, e2) -> PairStructure:
    """Reference for `classify_pair_structure`: the minimal cuts with direct
    source-sink edges reported at 0, and for the inclusive test the flow
    with e1 also at 0 from the public `max_flow`, which every cut with both
    edges must reach once e1 is dropped from it."""
    caps = resolve_reports(net, reports)
    caps.update(dict.fromkeys(net.terminal_edge_ids(), Fraction(0)))
    with_e2 = [M for M in enumerate_minimal_cuts(net, caps).cuts if e2 in M]
    both = tuple(M for M in with_e2 if e1 in M)
    second_only = tuple(M for M in with_e2 if e1 not in M)
    if not both:
        return PairStructure(PairKind.INDEPENDENT, both, second_only)
    if second_only:
        return PairStructure(PairKind.NEITHER, both, second_only)
    without_e1 = max_flow(net, {**caps, e1: 0}).value
    inclusive = all(sum(caps[e] for e in M if e != e1) == without_e1 for M in both)
    kind = PairKind.INCLUSIVE if inclusive else PairKind.NEITHER
    return PairStructure(kind, both, second_only, "evaluated at the current reports")


@pytest.fixture
def augment_calls(monkeypatch):
    """A list that grows by one on every `game._augment` call, that is, on
    every max flow a coalition table runs: once per coalition value that
    its bounds do not pin (`CharacteristicCache._compute`)."""
    import flowmech.game

    calls = []
    augment = flowmech.game._augment

    def counting_augment(*args):
        calls.append(1)
        return augment(*args)

    monkeypatch.setattr(flowmech.game, "_augment", counting_augment)
    return calls


@pytest.fixture
def compute_calls(monkeypatch):
    """A list that grows by one on every `CharacteristicCache._compute`
    call, that is, on every coalition value a table fills."""
    calls = []
    compute = CharacteristicCache._compute

    def counting_compute(cache, mask):
        calls.append(mask)
        return compute(cache, mask)

    monkeypatch.setattr(CharacteristicCache, "_compute", counting_compute)
    return calls


@pytest.fixture
def every_augment_call(monkeypatch):
    """A list that grows by one on every `_augment` call, that is, on every
    max flow, through whichever module's name for it the caller uses."""
    import sys

    import flowmech.maxflow

    calls = []
    augment = flowmech.maxflow._augment

    def counting_augment(*args):
        calls.append(1)
        return augment(*args)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "flowmech" and getattr(module, "_augment", None) is augment:
            monkeypatch.setattr(module, "_augment", counting_augment)
    return calls


@pytest.fixture(scope="session")
def fuzz_corpus():
    """100 seeded random instances, at most 8 edges each."""
    return corpus(100)


@pytest.fixture(scope="session")
def cut_corpus():
    """200 seeded random instances for the cut-enumeration equivalence run."""
    return corpus(200)


@pytest.fixture(scope="session")
def all_fixtures():
    return {name: load_fixture(name) for name in (
        "fig1", "fig2a", "fig2b", "fig3a", "fig3b", "fig4", "fig5", "fig9",
        "neither", "series", "diverge", "converge",
    )}


def assert_exact_flow(net, reports=None):
    """Conservation and capacity constraints must hold exactly on the witness."""
    caps = resolve_reports(net, reports)
    result = max_flow(net, caps)
    for e in net.edges:
        assert 0 <= result.edge_flows[e.id] <= caps[e.id]
    for node in net.nodes:
        if node in (net.source, net.sink):
            continue
        inflow = sum(result.edge_flows[e.id] for e in net.edges if e.head == node)
        outflow = sum(result.edge_flows[e.id] for e in net.edges if e.tail == node)
        assert inflow == outflow
    out_s = sum(result.edge_flows[e.id] for e in net.edges if e.tail == net.source)
    in_s = sum(result.edge_flows[e.id] for e in net.edges if e.head == net.source)
    assert result.value == out_s - in_s
    assert net.source in result.source_side
    assert net.sink not in result.source_side
    return result
