"""Independent reference computations.

Nothing here calls into flowmech's algorithms: max flow comes from networkx,
minimal cuts from a node-set characterisation of the benchmark's own, core
bounds from scipy's HiGHS solver turned into an exact certificate, and the
Shapley value from a plain permutation average.  Networks are read only
through their node and edge lists.  Every comparison is exact.

Imported only after the timed part of a run, so neither its import cost nor
its memory counts towards the measured metrics.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import factorial, lcm

import networkx as nx
from networkx.algorithms.flow import edmonds_karp


def caps_of(net, reports=None) -> dict[str, Fraction]:
    caps = {e.id: Fraction(e.cap) for e in net.edges}
    if reports:
        caps.update({k: Fraction(v) for k, v in reports.items()})
    return caps


def max_flow_value(net, caps: dict[str, Fraction]) -> Fraction:
    """Exact max flow.  Each edge runs through its own midpoint node, so
    parallel edges survive the conversion to a simple digraph."""
    g = nx.DiGraph()
    g.add_nodes_from(net.nodes)
    for e in net.edges:
        mid = ("mid", e.id)
        g.add_edge(e.tail, mid, capacity=caps[e.id])
        g.add_edge(mid, e.head, capacity=caps[e.id])
    value = nx.maximum_flow_value(g, net.source, net.sink, flow_func=edmonds_karp)
    return Fraction(value)


def _reach(adj: dict[str, list[str]], start: str, within: set[str]) -> set[str]:
    seen = {start}
    stack = [start]
    while stack:
        for nxt in adj.get(stack.pop(), ()):
            if nxt in within and nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def minimal_cuts(net, edge_ids=None) -> set[frozenset[str]]:
    """Inclusion-minimal s-t cuts among `edge_ids` (default: all edges).

    Every minimal cut is the set of edges leaving X, the nodes the source
    still reaches without it.  Conversely, for a node set X whose every node
    is reachable from the source inside X, the edges leaving X form a
    minimal cut exactly when the head of each of them reaches the sink
    outside X.
    """
    keep = set(net.edge_ids if edge_ids is None else edge_ids)
    edges = [e for e in net.edges if e.id in keep]
    fwd: dict[str, list[str]] = {}
    bwd: dict[str, list[str]] = {}
    for e in edges:
        fwd.setdefault(e.tail, []).append(e.head)
        bwd.setdefault(e.head, []).append(e.tail)
    used = {net.source, net.sink} | {e.tail for e in edges} | {e.head for e in edges}
    internal = sorted(used - {net.source, net.sink})
    out: set[frozenset[str]] = set()
    for bits in range(1 << len(internal)):
        side = {net.source} | {v for k, v in enumerate(internal) if bits >> k & 1}
        if _reach(fwd, net.source, side) != side:
            continue
        to_sink = _reach(bwd, net.sink, used - side)
        leaving = [e for e in edges if e.tail in side and e.head not in side]
        if leaving and all(e.head in to_sink for e in leaving):
            out.add(frozenset(e.id for e in leaving))
    return out


def mc_cuts(net) -> set[frozenset[str]]:
    """The minimal cuts that the cut-splitting step shares the flow over:
    those among the edges that do not run straight from source to sink.
    They depend on the graph only, not on the capacities."""
    direct = _direct_edges(net)
    inner = [eid for eid in net.edge_ids if eid not in direct]
    return minimal_cuts(net, inner) if inner else set()


def mc_allocation(net, caps=None, cuts=None) -> dict[str, Fraction]:
    """The cut-splitting mechanism from scratch, at `caps` (default: the
    true capacities); `cuts` may pass in `mc_cuts(net)`."""
    caps = caps_of(net) if caps is None else caps
    cuts = mc_cuts(net) if cuts is None else cuts
    pay = {eid: Fraction(0) for eid in caps}
    for eid in _direct_edges(net):
        pay[eid] = caps[eid]
    if not cuts:
        return pay
    totals = {M: sum((caps[e] for e in M), Fraction(0)) for M in cuts}
    flow = min(totals.values())
    share = flow / len(cuts)
    for M, total in totals.items():
        for eid in M:
            pay[eid] += share * caps[eid] / total
    return pay


def _direct_edges(net) -> set[str]:
    return {e.id for e in net.edges if e.tail == net.source and e.head == net.sink}


def critical_gain(net, caps: dict[str, Fraction], edge_id: str) -> Fraction:
    """How far the max flow rises when the edge's capacity rises without
    bound.  The max flow is the least cut capacity, so as a function of one
    capacity it climbs with slope 1 up to that capacity plus this gain and
    stays flat after it."""
    big = 1 + sum(caps.values())
    return max_flow_value(net, {**caps, edge_id: big}) - max_flow_value(net, caps)


def is_st_cut(net, removed: set[str]) -> bool:
    adj: dict[str, list[str]] = {}
    for e in net.edges:
        if e.id not in removed:
            adj.setdefault(e.tail, []).append(e.head)
    return net.sink not in _reach(adj, net.source, set(net.nodes))


class CoalitionTable:
    """v(S) for every coalition S (bit i = i-th edge), by networkx max flow."""

    def __init__(self, net):
        self.net = net
        self.order = net.edge_ids
        self.n = len(self.order)
        caps = caps_of(net)
        self.values = []
        for mask in range(1 << self.n):
            sub = {
                eid: (caps[eid] if mask >> i & 1 else Fraction(0))
                for i, eid in enumerate(self.order)
            }
            self.values.append(max_flow_value(net, sub))
        self.grand = self.values[-1]
        self.scale = lcm(*(q.denominator for q in caps.values()))

    def in_core(self, payoffs: dict[str, Fraction]) -> bool:
        x = [payoffs[eid] for eid in self.order]
        if sum(x, Fraction(0)) != self.grand:
            return False
        sums = [Fraction(0)] * (1 << self.n)
        for mask in range(1, 1 << self.n):
            low = mask & -mask
            sums[mask] = sums[mask ^ low] + x[low.bit_length() - 1]
            if sums[mask] < self.values[mask]:
                return False
        return True

    def shapley(self) -> dict[str, Fraction]:
        """Average marginal contribution over all n! arrival orders.  Every
        v(S) is a sum of capacities, so it is an integer once scaled by the
        lcm of their denominators; the sums run in integers."""
        scaled = [int(v * self.scale) for v in self.values]
        totals = [0] * self.n
        for order in permutations(range(self.n)):
            mask = 0
            for i in order:
                before = scaled[mask]
                mask |= 1 << i
                totals[i] += scaled[mask] - before
        denom = factorial(self.n) * self.scale
        return {eid: Fraction(totals[i], denom) for i, eid in enumerate(self.order)}

    def core_bounds(self, edge_id: str) -> tuple[Fraction, Fraction]:
        """Exact (min, max) of the edge's payoff over the core."""
        i = self.order.index(edge_id)
        return self._extreme(i, +1), -self._extreme(i, -1)

    def _rows(self) -> list[int]:
        # a coalition with a member it does not need is implied by the smaller
        # coalition plus that member's non-negative payoff, so only coalitions
        # whose every member is essential constrain the core
        rows = []
        for mask in range(1, (1 << self.n) - 1):
            v = self.values[mask]
            if mask & (mask - 1) == 0 or (
                v > 0 and all(self.values[mask & ~(1 << i)] < v for i in _bits(mask))
            ):
                rows.append(mask)
        return rows

    def _extreme(self, target: int, sign: int) -> Fraction:
        """min sign*x_target over the core, solved in floating point by HiGHS
        and then proven in exact arithmetic: the rounded primal point must
        satisfy every coalition constraint and the rounded dual must satisfy
        the dual constraints with the same objective value."""
        from scipy.optimize import linprog

        n, rows = self.n, self._rows()
        c = [0.0] * n
        c[target] = float(sign)
        a_ub = [[-1.0 if mask >> j & 1 else 0.0 for j in range(n)] for mask in rows]
        b_ub = [-float(self.values[mask]) for mask in rows]
        res = linprog(
            c,
            A_ub=a_ub,
            b_ub=b_ub,
            A_eq=[[1.0] * n],
            b_eq=[float(self.grand)],
            bounds=[(None, None)] * n,
            method="highs",
        )
        if res.status != 0:
            raise OracleError(f"HiGHS ended with status {res.status}: {res.message}")
        x = [self._exact(q) for q in res.x]
        y = [self._exact(-q) for q in res.ineqlin.marginals]
        z = self._exact(res.eqlin.marginals[0])
        value = sign * x[target]
        primal_ok = self.in_core(dict(zip(self.order, x)))
        dual_ok = all(q >= 0 for q in y) and all(
            sum((y[k] for k, mask in enumerate(rows) if mask >> j & 1), Fraction(0)) + z
            == (sign if j == target else 0)
            for j in range(n)
        )
        dual_value = sum((y[k] * self.values[mask] for k, mask in enumerate(rows)), Fraction(0))
        if not (primal_ok and dual_ok and dual_value + z * self.grand == value):
            raise OracleError("could not certify the HiGHS solution in exact arithmetic")
        return value

    def _exact(self, q: float) -> Fraction:
        return Fraction(q * self.scale).limit_denominator(1000) / self.scale


class OracleError(Exception):
    """The reference computation could not reach an exact answer."""


def _bits(mask: int):
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


def four_corner_relation(net, i: str, j: str) -> str:
    """complementary / substitutable / degenerate from the sign of
    F(B,B) + F(0,0) - F(0,B) - F(B,0), B = 1 + sum of capacities."""
    caps = caps_of(net)
    big = 1 + sum(caps.values())

    def flow(x, y):
        return max_flow_value(net, {**caps, i: x, j: y})

    diff = flow(big, big) + flow(0, 0) - flow(0, big) - flow(big, 0)
    if diff > 0:
        return "complementary"
    if diff < 0:
        return "substitutable"
    return "degenerate"
