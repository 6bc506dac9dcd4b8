"""Flow network model: parsing, validation, rendering.

Every capacity is an exact rational (``fractions.Fraction``).  Floats are
rejected at every entry point so that downstream computations reproduce
bit-for-bit; decimal literals in input files are converted exactly
(``0.5`` becomes ``1/2``).

Two equivalent file encodings are accepted:

* line format::

      # comment
      node s            (optional)
      source s          (optional; inferred by degree when omitted)
      sink t            (optional)
      edge e1 s t 3/2

* a JSON document::

      {"nodes": ["s", "t"],
       "edges": [{"id": "e1", "from": "s", "to": "t", "cap": "3/2"}],
       "source": "s", "sink": "t"}

Both readers hand every edge to one edge rule (:func:`_add_edge`) and end
in one finish (:func:`_finish`), so the two encodings accept the same
networks and refuse the same faults with the same messages; each reader
checks only its own syntax.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, Mapping, Optional, Sequence, Union

RationalLike = Union[int, str, Fraction]


class NetworkError(Exception):
    """Base error for network construction and parsing."""


class ParseError(NetworkError):
    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


def as_rational(value: RationalLike, what: str = "value") -> Fraction:
    """Convert to an exact Fraction; floats, like every type but int, str and
    Fraction, are refused to keep arithmetic exact."""
    if isinstance(value, bool) or not isinstance(value, (int, str, Fraction)):
        raise TypeError(f"{what} must be an int, Fraction, or string, not {type(value).__name__}")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    literal = _checked_size(value, what)
    try:
        return Fraction(literal.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed rational {what}: {value!r}") from exc


#: The most digits a number literal's numerator or denominator may have:
#: Python's default limit on int-string conversion, so every number that
#: parses can also be printed.
MAX_DIGITS = 4300

_POWER = re.compile(r"e([-+]?)0*(\d+)\s*\Z")


def _checked_size(literal: str, what: str) -> str:
    """The number literal, refused (ValueError) when its numerator or
    denominator, as written and with its exponent's power of ten, would have
    more than MAX_DIGITS digits.  The sizes are counted on the text, so a
    refused literal never builds its power of ten."""
    plain = literal.lower().replace("_", "")
    shift = 0
    power = _POWER.search(plain)
    if power:
        digits = power.group(2)
        shift = int(digits) if len(digits) <= len(str(MAX_DIGITS)) else MAX_DIGITS + 1
        shift = -shift if power.group(1) == "-" else shift
        plain = plain[: power.start()]
    numerator, _, denominator = plain.partition("/")
    decimals = numerator.partition(".")[2]
    sizes = (
        _digit_count(numerator) + max(shift, 0),
        max(_digit_count(denominator), 1) + _digit_count(decimals) + max(-shift, 0),
    )
    if max(sizes) > MAX_DIGITS:
        raise ValueError(f"{what} has more than {MAX_DIGITS} digits in its numerator or denominator")
    return literal


def _digit_count(text: str) -> int:
    return sum(map(str.isdigit, text))


@dataclass(frozen=True)
class Edge:
    id: str
    tail: str
    head: str
    cap: Fraction


@dataclass(frozen=True)
class FlowNetwork:
    """Acyclic directed graph with one source, one sink, rational capacities.

    Instances are immutable; all operations on them are pure functions, so
    networks are safe to share across concurrent evaluations.
    """

    nodes: tuple[str, ...]
    edges: tuple[Edge, ...]
    source: str
    sink: str

    @cached_property
    def arc_table(self) -> "ArcTable":
        """Index form of the graph for the max-flow routine, built once per
        instance (an instance attribute, so equality and hashing ignore it)."""
        return ArcTable.build(self)

    @cached_property
    def topology(self) -> "Topology":
        """The capacity-free structure with parallel edges merged into arcs,
        built once per instance (equality and hashing ignore it)."""
        return Topology.build(self)

    @cached_property
    def blocks(self) -> tuple[int, ...]:
        """The source-sink blocks as edge masks (:func:`_blocks`), built
        once per instance (equality and hashing ignore it)."""
        return tuple(_blocks(self))

    @cached_property
    def edge_ids(self) -> tuple[str, ...]:
        """The edge ids in edge order, built once per instance (equality
        and hashing ignore it)."""
        return tuple(e.id for e in self.edges)

    @cached_property
    def positions(self) -> dict[str, int]:
        """Each edge id's position in edge order, built once per instance
        (equality and hashing ignore it)."""
        return {eid: k for k, eid in enumerate(self.edge_ids)}

    def position(self, edge_id: str) -> int:
        """The edge's position in edge order; KeyError naming an unknown id."""
        try:
            return self.positions[edge_id]
        except KeyError:
            raise KeyError(f"unknown edge id {edge_id!r}") from None

    def edge(self, edge_id: str) -> Edge:
        return self.edges[self.position(edge_id)]

    def caps(self) -> dict[str, Fraction]:
        return {e.id: e.cap for e in self.edges}

    def is_terminal_edge(self, edge_id: str) -> bool:
        """True for a direct source-to-sink edge."""
        e = self.edge(edge_id)
        return e.tail == self.source and e.head == self.sink

    def terminal_edge_ids(self) -> tuple[str, ...]:
        return tuple(e.id for e in self.edges if e.tail == self.source and e.head == self.sink)

    def without_edges(self, edge_ids: Iterable[str]) -> "FlowNetwork":
        """Copy with the given edges removed; nodes left untouched by an edge are dropped,
        except the source and sink which always remain."""
        gone = set(edge_ids)
        kept = tuple(e for e in self.edges if e.id not in gone)
        used = {self.source, self.sink}.union(*((e.tail, e.head) for e in kept))
        return FlowNetwork(
            nodes=tuple(n for n in self.nodes if n in used),
            edges=kept,
            source=self.source,
            sink=self.sink,
        )

    def replace_edge(self, edge_id: str, replacements: Iterable[Edge]) -> "FlowNetwork":
        """Copy with one edge swapped for the given edges, in place in the edge order."""
        k = self.position(edge_id)
        new_edges = [*self.edges[:k], *replacements, *self.edges[k + 1 :]]
        seen: set[str] = set()
        for e in new_edges:
            if e.id in seen:
                raise NetworkError(f"duplicate edge id {e.id!r} after replacement")
            seen.add(e.id)
        return FlowNetwork(self.nodes, tuple(new_edges), self.source, self.sink)


@dataclass(frozen=True, eq=False)
class ArcTable:
    """Nodes and residual arcs by index.  Edge k (in edge order) has the
    forward arc 2k and the backward arc 2k + 1, so an arc's reverse is
    `arc ^ 1`.  `arcs_from[u]` holds (arc, head) sorted by (edge id,
    direction), which is the max-flow tie-break order; `arcs_into[v]` holds
    (arc, tail) for the breadth-first search back from the sink."""

    source: int
    sink: int
    arcs_from: tuple[tuple[tuple[int, int], ...], ...]
    arcs_into: tuple[tuple[tuple[int, int], ...], ...]

    @classmethod
    def build(cls, net: FlowNetwork) -> "ArcTable":
        index = {n: i for i, n in enumerate(net.nodes)}
        keyed: list[list[tuple[tuple[str, int], int, int]]] = [[] for _ in net.nodes]
        into: list[list[tuple[int, int]]] = [[] for _ in net.nodes]
        for k, e in enumerate(net.edges):
            tail, head = index[e.tail], index[e.head]
            keyed[tail].append(((e.id, 0), 2 * k, head))
            keyed[head].append(((e.id, 1), 2 * k + 1, tail))
            into[head].append((2 * k, tail))
            into[tail].append((2 * k + 1, head))
        arcs_from = tuple(
            tuple((arc, other) for _key, arc, other in sorted(arcs, key=lambda item: item[0]))
            for arcs in keyed
        )
        return cls(index[net.source], index[net.sink], arcs_from, tuple(map(tuple, into)))


@dataclass(frozen=True)
class Topology:
    """The graph without capacities or edge ids, with each group of parallel
    edges merged into one arc.  `arcs` holds the distinct (tail, head) pairs
    in order of first appearance in the edge order; `arc_of[k]` is the arc
    of edge k, and `copies[a]` the edge mask (bit k = edge k) of arc a.  Two
    networks that differ only in capacities, edge ids or the number of
    copies of an arc compare and hash equal, so their minimal cuts are
    found once."""

    nodes: tuple[str, ...]
    source: str
    sink: str
    arcs: tuple[tuple[str, str], ...]
    arc_of: tuple[int, ...] = field(compare=False)
    copies: tuple[int, ...] = field(compare=False)

    @classmethod
    def build(cls, net: FlowNetwork) -> "Topology":
        index: dict[tuple[str, str], int] = {}
        arc_of = [index.setdefault((e.tail, e.head), len(index)) for e in net.edges]
        copies = [0] * len(index)
        for k, a in enumerate(arc_of):
            copies[a] |= 1 << k
        return cls(net.nodes, net.source, net.sink, tuple(index), tuple(arc_of), tuple(copies))

    @cached_property
    def arcs_from(self) -> list[list[tuple[int, int]]]:
        """The arcs as (arc, head) pairs by node index (:func:`_adjacency_of`),
        built once per instance (equality and hashing ignore it)."""
        index = {n: i for i, n in enumerate(self.nodes)}
        return _adjacency_of(len(index), [(index[tail], index[head]) for tail, head in self.arcs])


def resolve_reports(
    net: FlowNetwork, reports: Optional[Mapping[str, RationalLike]] = None
) -> dict[str, Fraction]:
    """Full per-edge report vector; edges absent from `reports` default to
    their true capacity.  Reports must be >= 0 (0 means the edge is absent).

    An entry that is already a Fraction (a subclass too) is kept as it is,
    which is what :func:`as_rational` would return for it, and its sign is
    read from the numerator; every other entry goes through
    :func:`as_rational`.  So a resolved vector passes through with one type
    test and one integer comparison per entry."""
    out = net.caps()
    if reports:
        for eid, val in reports.items():
            if eid not in out:
                raise KeyError(f"unknown edge id {eid!r} in reports")
            q = val if isinstance(val, Fraction) else as_rational(val, what=f"report for {eid}")
            if q.numerator < 0:
                raise ValueError(f"negative report for {eid}: {q}")
            out[eid] = q
    return out


def scaled_weights(net: FlowNetwork, caps: Mapping[str, Fraction]) -> tuple[int, list[int]]:
    """The scaled-integer form of a report vector: `scale` is the lcm of the
    denominators of the network's reports, and weight k is the report of edge
    k (in edge order) times `scale`, an exact integer.  A sum of reports is
    then an integer sum divided by `scale` once at the end."""
    qs = [caps[e.id] for e in net.edges]
    scale = _rescale(1, *qs)
    return scale, [q.numerator * (scale // q.denominator) for q in qs]


def _rescale(scale: int, *reports: Fraction) -> int:
    """The lcm of `scale` and the reports' denominators: the scale of
    :func:`scaled_weights` once these reports join the vector."""
    for q in reports:
        if scale % q.denominator:
            scale = lcm(scale, q.denominator)
    return scale


# ---------------------------------------------------------------------------
# Parsing


def parse_network(text: str) -> FlowNetwork:
    """Parse either encoding.  Structural validation is *not* run here; use
    :func:`validate` for that."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _parse_json(text)
    return _parse_lines(text)


#: line-format directive -> its usage, whose word count is the line's arity
_DIRECTIVES = {
    "node": "node <id>",
    "source": "source <id>",
    "sink": "sink <id>",
    "edge": "edge <id> <tail> <head> <capacity>",
}


def _parse_lines(text: str) -> FlowNetwork:
    nodes: dict[str, None] = {}
    edges: dict[str, Edge] = {}
    named: dict[str, str] = {}  # the id the last 'node', 'source' or 'sink' line named
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        kind = fields[0]
        usage = _DIRECTIVES.get(kind)
        if usage is None:
            raise ParseError(f"unknown directive {kind!r}", lineno)
        if len(fields) != len(usage.split()):
            raise ParseError(f"expected: {usage}", lineno)
        if kind == "edge":
            _add_edge(nodes, edges, *fields[1:], lineno=lineno)
        else:
            named[kind] = fields[1]
            nodes.setdefault(fields[1])
    return _finish(nodes, edges, named.get("source"), named.get("sink"))


def _parse_json(text: str) -> FlowNetwork:
    try:
        # a JSON number becomes the exact Fraction of its literal, never a float
        doc = json.loads(
            text,
            parse_float=lambda s: Fraction(_checked_size(s, "JSON number")),
            parse_int=lambda s: int(_checked_size(s, "JSON number")),
        )
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    if not isinstance(doc, dict) or "edges" not in doc:
        raise ParseError("JSON document must be an object with an 'edges' field")

    declared = doc.get("nodes", [])
    if not isinstance(declared, list):
        raise ParseError("'nodes' must be a list of strings")
    for n in declared:
        if not isinstance(n, str):
            raise ParseError(f"node id must be a string, got {n!r}")
    nodes = dict.fromkeys(declared)
    known = set(nodes) if declared else None

    if not isinstance(doc["edges"], list):
        raise ParseError("'edges' must be a list of objects")
    edges: dict[str, Edge] = {}
    for i, item in enumerate(doc["edges"]):
        if not isinstance(item, dict):
            raise ParseError(f"edge #{i} must be an object")
        try:
            eid, tail, head, cap_raw = item["id"], item["from"], item["to"], item["cap"]
        except KeyError as exc:
            raise ParseError(f"edge #{i} missing field {exc.args[0]!r}") from None
        for field, value in (("id", eid), ("from", tail), ("to", head)):
            if not isinstance(value, str):
                raise ParseError(f"edge #{i} field {field!r} must be a string, got {value!r}")
        _add_edge(nodes, edges, eid, tail, head, cap_raw, known=known)
    return _finish(nodes, edges, doc.get("source"), doc.get("sink"))


def _add_edge(
    nodes: dict[str, None], edges: dict[str, Edge], eid: str, tail: str, head: str, cap_raw: RationalLike,
    lineno: Optional[int] = None, known: Optional[set[str]] = None,
) -> None:
    """The edge rules both encodings share, in the order their errors win:
    a new id, both ends in `known` when the document declares its nodes, an
    exact capacity, a positive one; then both ends become nodes.  An error
    is placed by its line in the line format; JSON has no lines, so there a
    capacity that does not parse names its edge."""
    if eid in edges:
        raise ParseError(f"duplicate edge id {eid!r}", lineno)
    if known is not None and (tail not in known or head not in known):
        missing = tail if tail not in known else head
        raise ParseError(f"edge {eid!r} references unknown node {missing!r}", lineno)
    try:
        cap = as_rational(cap_raw, what="capacity")
    except (TypeError, ValueError) as exc:
        raise ParseError(str(exc) if lineno else f"edge {eid!r}: {exc}", lineno) from None
    if cap <= 0:
        raise ParseError(f"non-positive capacity {cap} on edge {eid!r}", lineno)
    nodes.setdefault(tail)
    nodes.setdefault(head)
    edges[eid] = Edge(eid, tail, head, cap)


def _finish(nodes: dict[str, None], edges: dict[str, Edge], source: object, sink: object) -> FlowNetwork:
    """The network both encodings end in: it needs an edge; a declared
    source or sink must be a string and is a node even when no edge touches
    it; one left undeclared is the only node with in- (out-) degree 0 and
    an edge out (in)."""
    if not edges:
        raise ParseError("no edges defined")
    ends = {"source": source, "sink": sink}
    for role, end in ends.items():
        if end is not None:
            if not isinstance(end, str):
                raise ParseError(f"{role!r} must be a string, got {end!r}")
            nodes.setdefault(end)
    in_deg, out_deg = _degrees(nodes, edges.values())
    for role, side, zero, other in (("source", "in", in_deg, out_deg), ("sink", "out", out_deg, in_deg)):
        if ends[role] is None:
            candidates = [n for n in nodes if zero[n] == 0 and other[n] > 0]
            if len(candidates) != 1:
                raise ParseError(
                    f"cannot infer {role}: {len(candidates)} nodes with {side}-degree 0 "
                    f"(declare one with a '{role}' line)"
                )
            ends[role] = candidates[0]
    return FlowNetwork(tuple(nodes), tuple(edges.values()), ends["source"], ends["sink"])


def _degrees(nodes: Iterable[str], edges: Iterable[Edge]) -> tuple[dict[str, int], dict[str, int]]:
    """In- and out-degree of each node; every edge end must be a node."""
    in_deg = dict.fromkeys(nodes, 0)
    out_deg = dict.fromkeys(in_deg, 0)
    for e in edges:
        out_deg[e.tail] += 1
        in_deg[e.head] += 1
    return in_deg, out_deg


def render_network(net: FlowNetwork) -> str:
    """Line-format rendering; `parse_network(render_network(net)) == net`."""
    lines = [f"node {n}" for n in net.nodes]
    lines.append(f"source {net.source}")
    lines.append(f"sink {net.sink}")
    lines.extend(f"edge {e.id} {e.tail} {e.head} {e.cap}" for e in net.edges)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Validation


@dataclass(frozen=True)
class Diagnostic:
    code: str
    message: str
    entity: str
    severity: str = "error"


@dataclass(frozen=True)
class ValidationReport:
    diagnostics: tuple[Diagnostic, ...]

    @property
    def ok(self) -> bool:
        return not any(d.severity == "error" for d in self.diagnostics)

    def errors(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity == "error")


def validate(net: FlowNetwork) -> ValidationReport:
    """Check the model assumptions and report *all* failures.

    Checks: distinct edge ids, edge endpoints among the nodes, acyclicity,
    unique source (the only in-degree-0 node) and sink (the only
    out-degree-0 node), positive capacities, and that every edge lies on at
    least one source-sink path.  The graph checks need every endpoint, the
    source and the sink to be nodes, so they are skipped while one is not.
    """
    diags: list[Diagnostic] = []

    ids: set[str] = set()
    nodes = set(net.nodes)
    for e in net.edges:
        if e.id in ids:
            diags.append(Diagnostic("duplicate-edge-id", "edge id used by an earlier edge", e.id))
        ids.add(e.id)
        for end in dict.fromkeys((e.tail, e.head)):
            if end not in nodes:
                diags.append(Diagnostic("unknown-node", f"endpoint {end!r} is not a node", e.id))
        if e.cap <= 0:
            diags.append(Diagnostic("nonpositive-capacity", f"capacity {e.cap} is not > 0", e.id))
    for role, end in (("source", net.source), ("sink", net.sink)):
        if end not in nodes:
            diags.append(Diagnostic("unknown-node", f"{role} {end!r} is not a node", end))
    if any(d.code == "unknown-node" for d in diags):
        return ValidationReport(tuple(diags))

    if net.source == net.sink:
        diags.append(Diagnostic("source-equals-sink", "source and sink are the same node", net.source))

    cyclic_nodes = _cycle_nodes(net)
    if cyclic_nodes:
        diags.append(
            Diagnostic("cycle", f"cycle detected among nodes {sorted(cyclic_nodes)}", ",".join(sorted(cyclic_nodes)))
        )

    in_deg, out_deg = _degrees(net.nodes, net.edges)
    for n in net.nodes:
        if in_deg[n] == 0 and out_deg[n] == 0:
            diags.append(Diagnostic("isolated-node", "node has no incident edges", n))
        elif n != net.source and in_deg[n] == 0:
            diags.append(Diagnostic("extra-source", "node other than the source has in-degree 0", n))
        elif n != net.sink and out_deg[n] == 0:
            diags.append(Diagnostic("extra-sink", "node other than the sink has out-degree 0", n))
    if in_deg[net.source] > 0:
        diags.append(Diagnostic("source-degree", "source has incoming edges", net.source))
    if out_deg[net.sink] > 0:
        diags.append(Diagnostic("sink-degree", "sink has outgoing edges", net.sink))

    for eid in _off_path_edges(net):
        diags.append(Diagnostic("off-path-edge", "edge lies on no source-sink path", eid))

    return ValidationReport(tuple(diags))


def prune_to_paths(net: FlowNetwork) -> tuple[FlowNetwork, tuple[str, ...]]:
    """Drop every edge that is on no source-sink path; returns the pruned
    network and the ids that were removed."""
    off = _off_path_edges(net)
    return net.without_edges(off), off


def _cycle_nodes(net: FlowNetwork) -> set[str]:
    # Kahn's algorithm; whatever cannot be peeled off sits on a cycle.
    in_deg = {n: 0 for n in net.nodes}
    succ: dict[str, list[str]] = {n: [] for n in net.nodes}
    for e in net.edges:
        in_deg[e.head] += 1
        succ[e.tail].append(e.head)
    queue = [n for n in net.nodes if in_deg[n] == 0]
    remaining = set(net.nodes)
    while queue:
        n = queue.pop()
        remaining.discard(n)
        for m in succ[n]:
            in_deg[m] -= 1
            if in_deg[m] == 0:
                queue.append(m)
    return remaining


def _off_path_edges(net: FlowNetwork) -> tuple[str, ...]:
    # ends are indexed as they appear, so one that is not a node walks too
    index: dict[str, int] = {}
    arcs = [(index.setdefault(e.tail, len(index)), index.setdefault(e.head, len(index))) for e in net.edges]
    source, sink = (index.setdefault(end, len(index)) for end in (net.source, net.sink))
    on_path = _on_path(len(index), arcs, source, sink)
    return tuple(e.id for e, on in zip(net.edges, on_path) if not on)


def _on_path(size: int, arcs: Sequence[tuple[int, int]], source: int, sink: int) -> list[bool]:
    """For each (tail, head) arc over the node indices below `size`, whether
    it lies on a source-sink path."""
    every = [1] * len(arcs)
    from_source = reach(source, _adjacency_of(size, arcs), every)
    to_sink = reach(sink, _adjacency_of(size, [(v, u) for u, v in arcs]), every)
    return [u in from_source and v in to_sink for u, v in arcs]


def _blocks(net: FlowNetwork) -> list[int]:
    """The source-sink blocks as edge masks (bit k = edge k), ascending.

    A block is the edge set of one connected component of the graph with
    the source and the sink deleted; an edge with both ends among the
    terminals is a block of its own.  Blocks share only the terminals, so
    every source-sink path lies inside one block."""
    index = {n: i for i, n in enumerate(net.nodes)}
    s, t = index[net.source], index[net.sink]
    ends = [(index[e.tail], index[e.head]) for e in net.edges]
    inner = [(u, v) for u, v in ends if u != s and u != t and v != s and v != t]
    both_ways = _adjacency_of(len(index), inner + [(v, u) for u, v in inner])
    every = [1] * (2 * len(inner))
    block_of: dict[int, int] = {}  # internal node -> the node its block was first walked from
    masks: dict[int, int] = {}
    for k, (u, v) in enumerate(ends):
        node = v if u == s or u == t else u
        if node != s and node != t and node not in block_of:
            block_of.update(dict.fromkeys(reach(node, both_ways, every), node))
        key = block_of.get(node, ~k)  # an edge between the terminals is a block of its own
        masks[key] = masks.get(key, 0) | 1 << k
    return sorted(masks.values())


def _adjacency_of(size: int, arcs: Iterable[tuple[int, int]]) -> list[list[tuple[int, int]]]:
    """The (arc, head) pairs leaving each of the node indices below `size`,
    for (tail, head) arcs numbered in order: the form :func:`reach` walks."""
    out: list[list[tuple[int, int]]] = [[] for _ in range(size)]
    for a, (tail, head) in enumerate(arcs):
        out[tail].append((a, head))
    return out


def reach(start: int, adjacency: Sequence[Iterable[tuple[int, int]]], usable: Sequence[int]) -> set[int]:
    """The node indices reachable from `start`: `adjacency[u]` holds
    (arc, other end) pairs, and an arc is followed when `usable[arc] > 0`.
    The one reachability walk: over a residual it gives a max flow's source
    side; with every arc usable, the nodes that paths from `start` reach."""
    seen = {start}
    stack = [start]
    while stack:
        for arc, other in adjacency[stack.pop()]:
            if other not in seen and usable[arc] > 0:
                seen.add(other)
                stack.append(other)
    return seen
