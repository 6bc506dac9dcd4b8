"""Minimal cuts, critical values, and structural edge-pair classification.

A cut is an edge set whose removal leaves no source-sink path; a minimal cut
is one no proper subset of which is still a cut.  Minimal cuts are purely
structural (capacity-free); which of them is a *minimum* cut depends on the
reported capacities.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Optional, Sequence, Union

from .guards import guard_size
from .maxflow import _augment, _corner_flows, max_flow, source_side
from .network import FlowNetwork, RationalLike, Topology, reach, resolve_reports, scaled_weights


class _Unbounded:
    """Critical value of a direct source-sink edge: flow grows with its
    capacity forever, so there is no finite threshold.  It defines no
    ordering (``UNBOUNDED > 1`` raises TypeError): callers test
    ``is UNBOUNDED`` before they compare a critical value."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "UNBOUNDED"


UNBOUNDED = _Unbounded()
CriticalValue = Union[Fraction, _Unbounded]


@dataclass(frozen=True)
class MinimalCutFamily:
    """All inclusion-minimal cuts of a graph, sorted by their sorted member
    ids, with each cut's total reported capacity and the graph's max-flow
    value.  By max-flow/min-cut duality the flow value is the smallest cut
    total (0 when there is no cut, i.e. no source-sink path)."""

    cuts: tuple[frozenset[str], ...]
    flow_value: Fraction
    cut_capacities: tuple[Fraction, ...]


def _has_path(topology: Topology, usable: Sequence[int]) -> bool:
    """Whether the arcs a of a topology with `usable[a] > 0` join the source
    to the sink."""
    nodes = topology.nodes
    return nodes.index(topology.sink) in reach(nodes.index(topology.source), topology.arcs_from, usable)


@lru_cache(maxsize=512)
def _minimal_cutsets(topology: Topology, allowed: int) -> tuple[tuple[int, ...], ...]:
    """Inclusion-minimal cuts among the allowed arcs of a topology (bit a of
    `allowed` is arc a, see :class:`network.Topology`), each an ascending
    tuple of arc indices, found by enumerating node sets X (source in X,
    sink out) and collecting the arcs leaving X.  Every minimal cut arises
    this way: take X = nodes reachable from the source after removing it.
    Such an X has a predecessor in X for every node but the source, so other
    node sets are skipped.

    Arcs stand for groups of parallel edges, and that loses no minimal cut.
    A minimal cut of the multigraph is the set of allowed edges leaving its
    source side X, and an allowed copy left out of it would carry its
    head into X.  So a minimal cut holds every allowed copy of an arc or
    none of them, and expanding each arc to its allowed copies maps the
    minimal cuts of the arcs one to one onto those of the edges.  The family
    then depends on the structure alone: networks that differ only in
    capacities, or in how an arc is split into copies, share one entry.

    Arcs and internal nodes are bits of ints.  With outs(X) and ins(X) the
    masks of allowed arcs leaving and entering nodes of X, the cut of X is
    outs & ~ins; fed(X) is the mask of nodes with a predecessor in X.  Node
    subsets are walked in counting order, and each subset's three masks are
    its predecessor's (the subset without its lowest node) ORed with that
    node's.  Minimality is a mask test too."""
    source, sink = topology.source, topology.sink
    if not _has_path(topology, [allowed >> a & 1 for a in range(len(topology.arcs))]):
        return ()
    internal = [n for n in topology.nodes if n not in (source, sink)]
    guard_size("node-subset cut enumeration", len(internal), default_limit=16)
    position = {node: k for k, node in enumerate(internal)}
    out_of = [0] * len(internal)
    in_of = [0] * len(internal)
    succ_of = [0] * len(internal)
    out_src = in_src = succ_src = 0
    for a, (tail, head) in enumerate(topology.arcs):
        if not allowed >> a & 1:
            continue
        bit = 1 << a
        head_bit = 1 << position[head] if head in position else 0
        if tail == source:
            out_src |= bit
            succ_src |= head_bit
        elif tail in position:
            out_of[position[tail]] |= bit
            succ_of[position[tail]] |= head_bit
        if head == source:
            in_src |= bit
        elif head_bit:
            in_of[position[head]] |= bit
    size = 1 << len(internal)
    outs = [out_src] * size
    ins = [in_src] * size
    fed = [succ_src] * size
    candidates = {out_src & ~in_src}
    for sub in range(1, size):
        low = sub & -sub
        rest = sub ^ low
        v = low.bit_length() - 1
        outs[sub] = o = outs[rest] | out_of[v]
        ins[sub] = i = ins[rest] | in_of[v]
        fed[sub] = f = fed[rest] | succ_of[v]
        if f & sub == sub:
            candidates.add(o & ~i)
    # scanning by size, a candidate is minimal iff no already-kept (hence
    # smaller) cut sits inside it
    minimal: list[int] = []
    for cut in sorted(candidates, key=int.bit_count):
        if not any(kept & cut == kept for kept in minimal):
            minimal.append(cut)
    return tuple(tuple(a for a in range(cut.bit_length()) if cut >> a & 1) for cut in sorted(minimal))


#: `(cuts, totals)`: minimal cuts as ascending tuples of arc or edge
#: indices, and each cut's total in scaled integers, in the same order
CutTotals = tuple[tuple[tuple[int, ...], ...], list[int]]


def arc_cuts(net: FlowNetwork, weights: Sequence[int], also: int = 0) -> CutTotals:
    """`(cuts, totals)` for a weight vector in edge order (see
    :func:`scaled_weights`): the minimal cuts over the arcs of positive
    weight, and the arcs whose bits are set in `also`, as tuples of arc
    indices, and each cut's total.  An arc weighs the sum of its copies'
    weights, so a cut's total, the sum of its arcs' weights, is the sum
    over its positive-weight edges."""
    topology = net.topology
    arc_weights = [0] * len(topology.arcs)
    for a, w in zip(topology.arc_of, weights):
        arc_weights[a] += w
    allowed = sum(1 << a for a, w in enumerate(arc_weights) if w > 0) | also
    cuts = _minimal_cutsets(topology, allowed)
    return cuts, [sum(map(arc_weights.__getitem__, M)) for M in cuts]


def positive_minimal_cuts(net: FlowNetwork, weights: Sequence[int]) -> CutTotals:
    """`(cuts, totals)`: the minimal cuts over the edges of positive weight,
    as ascending tuples of edge indices (`weights` in edge order, see
    :func:`scaled_weights`), and each cut's total, in the order of
    :func:`arc_cuts`: each of its arc cuts with the arcs expanded to their
    positive-weight copies, at the same total.  A coalition's value is the
    cheapest of these cuts counting only its members, because a zero-weight
    edge adds nothing to any cut total."""
    copies = net.topology.copies
    positive = sum(1 << k for k, w in enumerate(weights) if w > 0)
    cuts, totals = arc_cuts(net, weights)
    # the copies of distinct arcs are disjoint edge masks, so their sum is their union
    masks = [sum(copies[a] for a in cut) & positive for cut in cuts]
    return tuple(tuple(k for k in range(mask.bit_length()) if mask >> k & 1) for mask in masks), totals


def enumerate_minimal_cuts(
    net: FlowNetwork, reports: Optional[Mapping[str, RationalLike]] = None
) -> MinimalCutFamily:
    """Minimal cuts of the graph as given, over the positively-reported edges.

    Edges reported at 0 are dropped first (they can carry no flow and would
    put zero-capacity members into cuts).  So callers that need the cuts of
    the graph without its direct source-sink edges (the cut-splitting
    mechanism does) report those edges at 0.  Cut totals come from
    :func:`arc_cuts` as scaled integers and are divided by the scale once
    per cut.
    """
    scale, weights = scaled_weights(net, resolve_reports(net, reports))
    ids = net.edge_ids
    cuts, sums = positive_minimal_cuts(net, weights)
    ordered = sorted((tuple(sorted(ids[k] for k in cut)), total) for cut, total in zip(cuts, sums))
    cutsets = tuple(frozenset(key) for key, _ in ordered)
    totals = tuple(Fraction(total, scale) for _, total in ordered)
    return MinimalCutFamily(cutsets, min(totals, default=Fraction(0)), totals)


def minimal_cuts_bruteforce(
    net: FlowNetwork, reports: Optional[Mapping[str, RationalLike]] = None
) -> MinimalCutFamily:
    """Oracle with the same contract as :func:`enumerate_minimal_cuts`:
    test every edge subset for cut-ness, keep the inclusion-minimal ones."""
    caps = resolve_reports(net, reports)
    positive = [k for k, e in enumerate(net.edges) if caps[e.id] > 0]
    guard_size("edge-subset cut enumeration", len(positive), default_limit=20)
    pos_mask = sum(1 << k for k in positive)
    # an arc is usable while one of its copies (an edge mask) is left
    topology = net.topology
    if not _has_path(topology, [copies & pos_mask for copies in topology.copies]):
        return MinimalCutFamily((), Fraction(0), ())
    all_cuts: set[frozenset[str]] = set()
    for mask in range(1 << len(positive)):
        removed = [positive[i] for i in range(len(positive)) if mask >> i & 1]
        left = pos_mask & ~sum(1 << k for k in removed)
        if not _has_path(topology, [copies & left for copies in topology.copies]):
            all_cuts.add(frozenset(net.edges[k].id for k in removed))
    minimal = sorted(
        (M for M in all_cuts if all(M - {e} not in all_cuts for e in M)),
        key=lambda M: tuple(sorted(M)),
    )
    totals = tuple(sum((caps[e] for e in M), Fraction(0)) for M in minimal)
    return MinimalCutFamily(tuple(minimal), max_flow(net, caps).value, totals)


def min_cut_nearest_source(
    net: FlowNetwork, reports: Optional[Mapping[str, RationalLike]] = None
) -> frozenset[str]:
    """The minimum cut with the smallest source side: the positive edges
    leaving the set of nodes reachable from the source in the residual graph
    of any maximum flow.  Independent of which maximum flow was found.

    One integer max flow (:func:`maxflow._augment`) on the scaled weights,
    with the source side read from its residual arcs
    (:func:`maxflow.source_side`); no witness flow is built."""
    caps = resolve_reports(net, reports)
    _, weights = scaled_weights(net, caps)
    return cut_leaving(net, weights, source_side(net, _augment(net, weights)[1]))


def cut_leaving(net: FlowNetwork, weights: Sequence[int], side: frozenset[str]) -> frozenset[str]:
    """The ids of the edges of positive weight in `weights` (scaled reports
    in edge order, never negative) that leave the node set `side`: the cut
    of a source side."""
    return frozenset(e.id for e, w in zip(net.edges, weights) if w and e.tail in side and e.head not in side)


def critical_value(
    net: FlowNetwork,
    reports: Optional[Mapping[str, RationalLike]],
    edge_id: str,
) -> CriticalValue:
    """Capacity threshold of an edge: the max-flow gain from raising the
    edge's capacity from 0 to beyond every bottleneck.  Only a direct
    source-sink edge lies in every cut, so only its flow grows without bound
    (UNBOUNDED); any other edge misses the edges leaving the source or those
    entering the sink, both finite cuts, so the finite proxy B = 1 + the sum
    of the other reports already lies beyond every bottleneck.

    Both flows are the corners of :func:`maxflow._corner_flows` on one
    scaled weight vector, and their difference is divided by the scale
    once."""
    caps = resolve_reports(net, reports)
    if net.is_terminal_edge(edge_id):  # raises KeyError for an unknown edge
        return UNBOUNDED
    scale, weights = scaled_weights(net, caps)
    _, (at_zero, beyond), _ = _corner_flows(net, scale, weights, [net.position(edge_id)])
    return Fraction(beyond - at_zero, scale)


class PairKind(str, Enum):
    INDEPENDENT = "independent"
    INCLUSIVE = "inclusive"
    NEITHER = "neither"


@dataclass(frozen=True)
class PairStructure:
    kind: PairKind
    cuts_with_both: tuple[frozenset[str], ...]
    cuts_with_second_only: tuple[frozenset[str], ...]
    note: str = ""


def classify_pair_structure(
    net: FlowNetwork,
    reports: Optional[Mapping[str, RationalLike]],
    e1: str,
    e2: str,
) -> PairStructure:
    """Classify an ordered pair of non-terminal edges by the minimal cuts of
    the graph with direct source-sink edges reported at 0.

    - independent: no minimal cut contains both edges;
    - inclusive: every minimal cut containing the second edge also contains
      the first, and dropping the first from such a cut leaves a minimum cut
      of the graph without the first edge (this part is evaluated at the
      current reports, so the label can change with them);
    - neither: everything else.
    """
    if e1 == e2:
        raise ValueError("the two edges must differ")
    for eid in (e1, e2):
        if net.is_terminal_edge(eid):
            raise ValueError(
                f"edge {eid!r} runs directly from source to sink and has no pair structure"
            )
    caps = resolve_reports(net, reports)
    caps.update(dict.fromkeys(net.terminal_edge_ids(), Fraction(0)))
    family = enumerate_minimal_cuts(net, caps)
    both = tuple(M for M in family.cuts if e1 in M and e2 in M)
    second_only = tuple(M for M in family.cuts if e2 in M and e1 not in M)

    if not both:
        return PairStructure(PairKind.INDEPENDENT, both, second_only)
    if second_only:
        return PairStructure(PairKind.NEITHER, both, second_only)

    # a cut of the graph without e1, plus e1, holds a listed minimal cut, and
    # a listed cut less e1 is a cut without e1: so the flow with e1 at 0 is
    # the cheapest listed total less e1's report
    totals = list(zip(family.cuts, family.cut_capacities))
    residual_value = min(total - caps[e1] if e1 in M else total for M, total in totals)
    note = "evaluated at the current reports"
    if any(total - caps[e1] != residual_value for M, total in totals if e2 in M):
        return PairStructure(PairKind.NEITHER, both, second_only, note)
    return PairStructure(PairKind.INCLUSIVE, both, second_only, note)
