"""Complementarity and substitutability of edge pairs.

The sign of the discrete second-order difference quotient of the
two-parameter max-flow function decides whether two edges reinforce each
other (complementary, quotient >= 0) or compete (substitutable, <= 0).  For
a fixed configuration of the other capacities one of the two always holds;
whether it holds for *every* configuration can only be sampled here, never
proven, so verdicts carry an explicit supported / refuted / not-tested claim.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import lcm
from typing import Mapping, Optional

from .maxflow import _augment
from .network import FlowNetwork, RationalLike, as_rational, resolve_reports, scaled_weights


class DichotomyError(Exception):
    """Raised when one configuration shows both strictly positive and
    strictly negative quotients; that cannot happen for max-flow, so it
    signals a solver bug rather than a property of the input."""


class Relation(str, Enum):
    COMPLEMENTARY = "complementary"
    SUBSTITUTABLE = "substitutable"
    DEGENERATE = "degenerate"


STRUCTURAL_RELATION = {
    "series": Relation.COMPLEMENTARY,
    "disjoint-terminal": Relation.COMPLEMENTARY,
    "parallel": Relation.SUBSTITUTABLE,
    "common-tail": Relation.SUBSTITUTABLE,
    "common-head": Relation.SUBSTITUTABLE,
}


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


class _PairFlow:
    """Memoized two-parameter max-flow evaluator for one (i, j, rest).

    The scale and integer weights of the other edges are computed once;
    each call folds in only the two overrides."""

    def __init__(self, net: FlowNetwork, i: str, j: str, rest: dict[str, Fraction]):
        if i not in net.by_id or j not in net.by_id:
            raise KeyError("unknown edge id")
        self.net = net
        self._slots = net.edge_ids.index(i), net.edge_ids.index(j)
        self._scale, weights = scaled_weights({eid: q for eid, q in rest.items() if eid not in (i, j)})
        self._weights = [weights.get(eid, 0) for eid in net.edge_ids]
        self._memo: dict[tuple[int, int, int, int], Fraction] = {}

    def __call__(self, x: Fraction, y: Fraction) -> Fraction:
        # keyed on numerators and denominators: hashing a Fraction costs a
        # modular inverse, hashing an int almost nothing
        key = (x.numerator, x.denominator, y.numerator, y.denominator)
        got = self._memo.get(key)
        if got is None:
            base = self._scale
            scale = lcm(base, x.denominator, y.denominator)
            k = scale // base
            weights = [w * k for w in self._weights]
            si, sj = self._slots
            weights[si] = x.numerator * (scale // x.denominator)
            weights[sj] = y.numerator * (scale // y.denominator)
            got = self._memo[key] = Fraction(_augment(self.net, weights)[0], scale)
        return got


def difference_quotient(
    net: FlowNetwork,
    i: str,
    j: str,
    x: RationalLike,
    y: RationalLike,
    a: RationalLike,
    b: RationalLike,
    rest: Optional[Mapping[str, RationalLike]] = None,
) -> Fraction:
    """(F(x+a,y+b) - F(x+a,y) - F(x,y+b) + F(x,y)) / (a*b) where F is the
    max-flow value as a function of the two edges' capacities."""
    qx, qy = as_rational(x), as_rational(y)
    qa, qb = as_rational(a), as_rational(b)
    if qa <= 0 or qb <= 0:
        raise ValueError("steps a and b must be > 0")
    if qx < 0 or qy < 0:
        raise ValueError("base capacities must be >= 0")
    F = _PairFlow(net, i, j, resolve_reports(net, rest))
    return (F(qx + qa, qy + qb) - F(qx + qa, qy) - F(qx, qy + qb) + F(qx, qy)) / (qa * qb)


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


def _probe_levels(net: FlowNetwork, i: str, j: str, caps: dict[str, Fraction]) -> list[Fraction]:
    levels = {Fraction(0)}
    for eid in (i, j):
        q = caps[eid]
        levels.add(q / 2)
        levels.add(q)
    levels.add(caps[i] + caps[j])
    levels.add(sum(caps.values(), Fraction(0)))
    return sorted(levels)


def _probe_steps(caps: dict[str, Fraction]) -> list[Fraction]:
    positive = [q for q in caps.values() if q > 0]
    steps = {Fraction(1)}
    if positive:
        steps.add(min(positive) / 2)
    return sorted(steps)


def classify_complementarity(
    net: FlowNetwork,
    i: str,
    j: str,
    rest: Optional[Mapping[str, RationalLike]] = None,
) -> ComplementarityVerdict:
    """Probe the difference quotient over a deterministic grid at one fixed
    configuration of the other capacities and classify by sign pattern."""
    if i == j:
        raise ValueError("the two edges must differ")
    caps = resolve_reports(net, rest)
    F = _PairFlow(net, i, j, caps)
    levels = _probe_levels(net, i, j, caps)
    steps = _probe_steps(caps)
    probes: list[tuple[Fraction, Fraction, Fraction, Fraction, Fraction]] = []
    has_pos = has_neg = False
    for x in levels:
        for y in levels:
            for a in steps:
                for b in steps:
                    q = (F(x + a, y + b) - F(x + a, y) - F(x, y + b) + F(x, y)) / (a * b)
                    probes.append((x, y, a, b, q))
                    if q > 0:
                        has_pos = True
                    elif q < 0:
                        has_neg = True
    if has_pos and has_neg:
        raise DichotomyError(
            f"pair ({i}, {j}) showed quotients of both signs at one configuration"
        )
    if has_pos:
        relation = Relation.COMPLEMENTARY
    elif has_neg:
        relation = Relation.SUBSTITUTABLE
    else:
        relation = Relation.DEGENERATE
    return ComplementarityVerdict(
        relation=relation,
        probes=tuple(probes),
        constant_claim=ConstantClaim("not-tested"),
        pattern=structural_pattern(net, i, j),
    )


@dataclass(frozen=True)
class CapLattice:
    """Rational lattice random capacities are drawn from: numerators
    1..numerator_max over a fixed denominator."""

    numerator_max: int = 8
    denominator: int = 4

    def draw(self, rng: random.Random) -> Fraction:
        return Fraction(rng.randint(1, self.numerator_max), self.denominator)


def probe_constant_relation(
    net: FlowNetwork,
    i: str,
    j: str,
    sample_count: int,
    seed: int,
    lattice: CapLattice = CapLattice(numerator_max=16),
) -> ComplementarityVerdict:
    """Re-classify the pair under seeded random configurations of all other
    capacities.  The constancy claim is supported when no two samples show
    strictly opposite signs, and refuted with the witness configuration
    otherwise."""
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    rng = random.Random(seed)
    others = [eid for eid in net.edge_ids if eid not in (i, j)]
    base = resolve_reports(net, None)

    relations: list[Relation] = []
    configs: list[tuple[tuple[str, Fraction], ...]] = []
    first_probes: tuple = ()
    pos_witness: Optional[dict] = None
    neg_witness: Optional[dict] = None
    for k in range(sample_count):
        rest = dict(base)
        for eid in others:
            rest[eid] = lattice.draw(rng)
        verdict = classify_complementarity(net, i, j, rest)
        relations.append(verdict.relation)
        configs.append(tuple(sorted((eid, rest[eid]) for eid in others)))
        if k == 0:
            first_probes = verdict.probes
        if verdict.relation is Relation.COMPLEMENTARY and pos_witness is None:
            pos_witness = {eid: rest[eid] for eid in others}
        if verdict.relation is Relation.SUBSTITUTABLE and neg_witness is None:
            neg_witness = {eid: rest[eid] for eid in others}

    if pos_witness is not None and neg_witness is not None:
        claim = ConstantClaim(
            "refuted",
            witness={"complementary-at": pos_witness, "substitutable-at": neg_witness},
        )
        overall = Relation.DEGENERATE
    else:
        claim = ConstantClaim("supported")
        if pos_witness is not None:
            overall = Relation.COMPLEMENTARY
        elif neg_witness is not None:
            overall = Relation.SUBSTITUTABLE
        else:
            overall = Relation.DEGENERATE
    return ComplementarityVerdict(
        relation=overall,
        probes=first_probes,
        constant_claim=claim,
        pattern=structural_pattern(net, i, j),
        sample_relations=tuple(relations),
        sample_configs=tuple(configs),
    )
