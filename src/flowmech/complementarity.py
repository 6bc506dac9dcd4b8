"""Complementarity and substitutability of edge pairs.

Two edges reinforce each other (complementary) or compete (substitutable)
according to the sign of the second-order difference of the two-parameter
max-flow function F(x, y).  Every minimum cut contains neither edge, one of
them or both, so F is the minimum of four terms, A, C_i + x, C_j + y and
C_ij + x + y, whose constants are cut totals over the other edges.  With B
one more than the sum of the other capacities, F(x, y) = min(F(B,B),
F(0,B) + x, F(B,0) + y, F(0,0) + x + y) on [0, B]^2, so one second
difference over that square, F(B,B) + F(0,0) - F(0,B) - F(B,0), decides the
relation at a fixed configuration of the other capacities: one max flow,
F(0,0), and three continued from a neighbouring corner's flow.
Whether the relation holds for *every* configuration can only be sampled
here, never proven, so verdicts carry an explicit supported / refuted /
not-tested claim.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Mapping, Optional

from .maxflow import _corner_flows
from .network import FlowNetwork, RationalLike, resolve_reports, scaled_weights


class Relation(str, Enum):
    COMPLEMENTARY = "complementary"
    SUBSTITUTABLE = "substitutable"
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class ConstantClaim:
    status: str  # "supported" | "refuted" | "not-tested"
    witness: Optional[dict] = None


@dataclass(frozen=True)
class ComplementarityVerdict:
    relation: Relation
    probes: tuple[tuple[Fraction, Fraction, Fraction, Fraction, Fraction], ...]
    constant_claim: ConstantClaim
    pattern: Optional[str] = None
    sample_relations: tuple[Relation, ...] = ()
    sample_configs: tuple[tuple[tuple[str, Fraction], ...], ...] = ()


def structural_pattern(net: FlowNetwork, i: str, j: str) -> Optional[str]:
    """Recognize the local shapes whose relation never depends on the other
    capacities: a two-edge chain through a degree-(1,1) node, parallel edges,
    a shared tail, a shared head, or a disjoint source-out / sink-in pair."""
    a, b = net.edge(i), net.edge(j)
    if a.tail == b.tail and a.head == b.head:
        return "parallel"
    if _in_series(net, a, b) or _in_series(net, b, a):
        return "series"
    if a.tail == b.tail:
        return "common-tail"
    if a.head == b.head:
        return "common-head"
    for first, second in ((a, b), (b, a)):
        if (
            first.tail == net.source
            and second.head == net.sink
            and {first.tail, first.head}.isdisjoint({second.tail, second.head})
        ):
            return "disjoint-terminal"
    return None


def _in_series(net: FlowNetwork, first, second) -> bool:
    mid = first.head
    if mid != second.tail:
        return False
    into = [e for e in net.edges if e.head == mid]
    out = [e for e in net.edges if e.tail == mid]
    return into == [first] and out == [second]


def classify_complementarity(
    net: FlowNetwork,
    i: str,
    j: str,
    rest: Optional[Mapping[str, RationalLike]] = None,
) -> ComplementarityVerdict:
    """Classify the pair at one fixed configuration of the other capacities
    by the sign of the second difference over the square [0, B]^2, where B
    is 1 plus the sum of the other edges' capacities (see the module
    docstring): F(B,B) - F(B,0) - F(0,B) + F(0,0), one max flow F(0,0) and
    three continued from a neighbouring corner's flow
    (:func:`maxflow._corner_flows`).  The one probe recorded is
    (0, 0, B, B, q) with q that difference over B^2."""
    if i == j:
        raise ValueError("the two edges must differ")
    pair = [net.position(i), net.position(j)]
    caps = resolve_reports(net, rest)
    scale, weights = scaled_weights(net, caps)
    big, (f00, fb0, f0b, fbb), _ = _corner_flows(net, scale, weights, pair)
    second = fbb - fb0 - f0b + f00
    if second > 0:
        relation = Relation.COMPLEMENTARY
    elif second < 0:
        relation = Relation.SUBSTITUTABLE
    else:
        relation = Relation.DEGENERATE
    zero, B = Fraction(0), Fraction(big, scale)
    return ComplementarityVerdict(
        relation=relation,
        probes=((zero, zero, B, B, Fraction(second * scale, big * big)),),
        constant_claim=ConstantClaim("not-tested"),
        pattern=structural_pattern(net, i, j),
    )


@dataclass(frozen=True)
class CapLattice:
    """Rational lattice random capacities are drawn from: numerators
    1..numerator_max over a fixed denominator."""

    numerator_max: int = 8
    denominator: int = 4

    def __post_init__(self):
        if self.numerator_max < 1 or self.denominator < 1:
            raise ValueError(
                f"a capacity lattice needs numerator_max >= 1 and denominator >= 1, "
                f"got {self.numerator_max} and {self.denominator}"
            )

    def draw(self, rng: random.Random) -> Fraction:
        return Fraction(rng.randint(1, self.numerator_max), self.denominator)


#: the lattice `probe_constant_relation` draws the other capacities from
_SAMPLE_LATTICE = CapLattice(numerator_max=16)


def probe_constant_relation(
    net: FlowNetwork,
    i: str,
    j: str,
    sample_count: int,
    seed: int,
) -> ComplementarityVerdict:
    """Re-classify the pair under seeded random configurations of all other
    capacities, drawn from `_SAMPLE_LATTICE`.  The constancy claim is
    supported when no two samples show strictly opposite signs, and refuted
    with the witness configuration otherwise."""
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    rng = random.Random(seed)
    others = [eid for eid in net.edge_ids if eid not in (i, j)]
    samples = []
    for _ in range(sample_count):
        rest = {eid: _SAMPLE_LATTICE.draw(rng) for eid in others}
        samples.append((rest, classify_complementarity(net, i, j, rest)))
    # the first configuration showing each strict sign
    signs = (Relation.COMPLEMENTARY, Relation.SUBSTITUTABLE)
    first: dict[Relation, dict[str, Fraction]] = {}
    for rest, verdict in samples:
        if verdict.relation in signs:
            first.setdefault(verdict.relation, rest)
    if len(first) == 2:
        claim = ConstantClaim("refuted", witness={f"{r.value}-at": first[r] for r in signs})
        overall = Relation.DEGENERATE
    else:
        claim = ConstantClaim("supported")
        overall = next(iter(first), Relation.DEGENERATE)
    return ComplementarityVerdict(
        relation=overall,
        probes=samples[0][1].probes,
        constant_claim=claim,
        pattern=samples[0][1].pattern,
        sample_relations=tuple(verdict.relation for _, verdict in samples),
        sample_configs=tuple(tuple(sorted(rest.items())) for rest, _ in samples),
    )
