"""Seeded input generators.

Everything here is a pure function of the seed it is given, so the same
seed always yields the same corpus.  The program under test only ever sees
the finished networks.
"""

from __future__ import annotations

import random
from fractions import Fraction

from flowmech import Edge, FlowNetwork, random_network, validate


def layered_dag(shape_seed: int, cap_seed: int, width: int, depth: int, extra: int) -> FlowNetwork:
    """`depth` layers of `width` internal nodes.  The source feeds every node
    of the first layer, node k of each layer feeds node k of the next, and the
    last layer drains into the sink.  On top of that come `extra` edges drawn
    with `shape_seed`: the first duplicates a base edge (so merge-proofness
    has a parallel pair to merge), the rest cross from node a to node b != a
    of the next layer.  Capacities are drawn with `cap_seed` from
    {1/4, 2/4, ..., 8/4}."""
    if width < 2 or depth < 2 or extra < 1:
        raise ValueError("need width >= 2, depth >= 2 and at least one extra edge")
    rng = random.Random(shape_seed)
    layers = [[f"L{d}n{k}" for k in range(width)] for d in range(depth)]
    pairs = [("s", v) for v in layers[0]]
    for d in range(depth - 1):
        pairs += list(zip(layers[d], layers[d + 1]))
    pairs += [(v, "t") for v in layers[-1]]
    cross = [
        (layers[d][a], layers[d + 1][b])
        for d in range(depth - 1)
        for a in range(width)
        for b in range(width)
        if a != b
    ]
    pairs.append(rng.choice(pairs))
    pairs += rng.sample(cross, extra - 1)
    nodes = ("s", *(v for layer in layers for v in layer), "t")
    net = FlowNetwork(nodes, _edges(pairs, random.Random(cap_seed)), "s", "t")
    if not validate(net).ok:  # pragma: no cover - every node lies on an s-t path
        raise AssertionError("layered DAG failed validation")
    return net


def recapacitated(net: FlowNetwork, cap_seed: int) -> FlowNetwork:
    """The same graph with capacities redrawn from {1/4, ..., 8/4}."""
    pairs = [(e.tail, e.head) for e in net.edges]
    return FlowNetwork(net.nodes, _edges(pairs, random.Random(cap_seed)), net.source, net.sink)


def _edges(pairs, rng: random.Random) -> tuple[Edge, ...]:
    return tuple(Edge(f"e{k}", u, v, Fraction(rng.randint(1, 8), 4)) for k, (u, v) in enumerate(pairs, 1))


def random_networks_by_size(sizes: list[int], max_nodes: int, max_edges: int):
    """One `random_network` per requested edge count, taken in order from
    network seeds 1, 2, 3, ...  Returns (network seed, network) pairs; a
    size may be requested more than once and then gets distinct networks."""
    wanted = list(sizes)
    out: list[tuple[int, FlowNetwork]] = []
    s = 0
    while wanted:
        s += 1
        net = random_network(s, max_nodes=max_nodes, max_edges=max_edges)
        if len(net.edges) in wanted:
            wanted.remove(len(net.edges))
            out.append((s, net))
    out.sort(key=lambda item: len(item[1].edges))
    return out
