"""Exact maximum flow over rational capacities.

Shortest augmenting paths (BFS level graph), breaking ties toward the
lexicographically smallest path by (edge id, direction).  The augmentation
runs in scaled integers: every capacity is multiplied by the lcm of the
capacity denominators (:func:`network.scaled_weights`), so every comparison
is exact, and each output is divided back into a Fraction once.  A run from
zero flow is deterministic: identical inputs always produce the identical
witness flow and residual source side.  A run continued from another flow
(:func:`_corner_flows`) reaches the same value, but its flow may differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from .network import FlowNetwork, RationalLike, reach, resolve_reports, scaled_weights


@dataclass(frozen=True)
class FlowResult:
    value: Fraction
    edge_flows: dict[str, Fraction]
    source_side: frozenset[str]


def max_flow(
    net: FlowNetwork, reports: Optional[Mapping[str, RationalLike]] = None
) -> FlowResult:
    """Maximum source-to-sink flow under the reported capacities.

    An edge reported at 0 is effectively absent.  `source_side` is the set
    of nodes reachable from the source in the final residual graph, so the
    edges leaving it form the minimum cut nearest the source.
    """
    scale, weights = scaled_weights(net, resolve_reports(net, reports))
    value, residual = _augment(net, weights)
    flows = {e.id: Fraction(residual[2 * k + 1], scale) for k, e in enumerate(net.edges)}
    return FlowResult(Fraction(value, scale), flows, source_side(net, residual))


def source_side(net: FlowNetwork, residual: Sequence[int]) -> frozenset[str]:
    """The names of the nodes the source reaches in the residual graph of a
    max flow, `residual` holding every arc of `net.arc_table` as
    :func:`_augment` returns it: the source side of the minimum cut nearest
    the source, whichever max flow left the residual (Picard & Queyranne,
    Math. Programming Study 13, 1980).  The one residual walk."""
    table = net.arc_table
    return frozenset(net.nodes[u] for u in reach(table.source, table.arcs_from, residual))


def _corner_flows(
    net: FlowNetwork, scale: int, weights: Sequence[int], edges: Sequence[int]
) -> tuple[int, list[int], list[list[int]]]:
    """Integer max flows with the scaled weights of one or two edges (edge
    indices `edges`) set to each corner of {0, B}^k, every other weight as
    given.  B is 1 plus the sum of the other edges' reports, so B * scale =
    scale + their weights, and a cut through an edge at B costs more than
    any cut that avoids the edges at B.  Returns B * scale, the flow values
    and their residual arcs (as :func:`_augment` returns them, for
    :func:`source_side`), corner by corner: the corner with edge `edges[m]`
    at B exactly when bit m of its list index is set.

    Only corner 0, every listed edge at 0, runs from zero flow.  Each other
    corner continues from the max flow of the corner without its highest
    set bit, where that bit's edge had capacity 0 and so carried no flow:
    raising its capacity to B keeps that flow feasible, and augmenting on
    reaches the corner's max flow, whose value is unique (Gallo, Grigoriadis
    & Tarjan, SIAM J. Comput. 18(1), 1989)."""
    big = _proxy_big(scale, weights, edges)
    corner = list(weights)
    flows, residuals = [], []
    for mask in range(1 << len(edges)):
        for m, k in enumerate(edges):
            corner[k] = big if mask >> m & 1 else 0
        start = None
        if mask:
            top = mask.bit_length() - 1
            below = mask ^ 1 << top
            residual = list(residuals[below])
            residual[2 * edges[top]] += big
            start = (flows[below], residual)
        value, residual = _augment(net, corner, start)
        flows.append(value)
        residuals.append(residual)
    return big, flows, residuals


def _proxy_big(scale: int, weights: Sequence[int], edges: Sequence[int]) -> int:
    """B * scale for the proxy B of :func:`_corner_flows`: 1 plus the sum of
    the reports of every edge but `edges` (edge indices), scaled."""
    return scale + sum(weights) - sum(weights[k] for k in edges)


def _augment(
    net: FlowNetwork, weights: Sequence[int], start: Optional[tuple[int, list[int]]] = None
) -> tuple[int, list[int]]:
    """Maximum flow on integer capacities, one per edge in edge order.
    Returns the flow value and the residual capacity of every arc of
    `net.arc_table`; the flow on edge k is the residual of arc 2k + 1.

    From zero flow, or from `start`: the value and residual arcs of a flow
    feasible under `weights` (residual[2k] + residual[2k + 1] == weights[k],
    both >= 0), whose residual list is then augmented in place."""
    table = net.arc_table
    s, t = table.source, table.sink
    arcs_from, arcs_into = table.arcs_from, table.arcs_into
    if start is None:
        residual = [0] * (2 * len(weights))
        residual[0::2] = weights
        value = 0
    else:
        value, residual = start
    while True:
        # levels back from the sink; every node closer than the source is
        # labelled before the source is, so the search may stop there
        dist = [-1] * len(arcs_from)
        dist[t] = 0
        frontier = [t]
        while frontier and dist[s] < 0:
            nxt = []
            for v in frontier:
                level = dist[v] + 1
                for arc, tail in arcs_into[v]:
                    if dist[tail] < 0 and residual[arc] > 0:
                        dist[tail] = level
                        nxt.append(tail)
            frontier = nxt
        if dist[s] < 0:
            return value, residual
        # greedy descent along the level graph picks the lexicographically
        # smallest shortest augmenting path
        path = []
        u = s
        while u != t:
            below = dist[u] - 1
            for arc, head in arcs_from[u]:
                if residual[arc] > 0 and dist[head] == below:
                    path.append(arc)
                    u = head
                    break
            else:  # pragma: no cover - BFS guarantees a usable arc exists
                raise AssertionError("level graph dead end")
        bottleneck = min(residual[arc] for arc in path)
        for arc in path:
            residual[arc] -= bottleneck
            residual[arc ^ 1] += bottleneck
        value += bottleneck


def coalition_value(
    net: FlowNetwork,
    reports: Optional[Mapping[str, RationalLike]],
    members: Iterable[str],
) -> Fraction:
    """Value of a coalition: max flow using only the members' edges at their
    reported capacities."""
    caps = resolve_reports(net, reports)
    keep = set(members)
    unknown = keep - set(caps)
    if unknown:
        raise KeyError(f"unknown edge ids in coalition: {sorted(unknown)}")
    scale, weights = scaled_weights(net, caps)
    weights = [w if eid in keep else 0 for eid, w in zip(net.edge_ids, weights)]
    return Fraction(_augment(net, weights)[0], scale)
