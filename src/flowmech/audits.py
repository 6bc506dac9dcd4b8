"""Mechanical audits of mechanism properties.

Each check searches for a concrete counterexample (a profitable deviation, a
profitable split or merge, a payoff that drops when it must not) and returns
a reproducible witness when it finds one.  A passing audit is evidence, not
a proof: grids are finite, but they are augmented with the structural
breakpoints (critical values, the other players' reports) where the payoff
functions kink.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import gcd, lcm
from typing import Callable, Mapping, Optional, Sequence, Union

from . import mechanisms
from .complementarity import CapLattice, Relation, probe_constant_relation
from .cuts import PairKind, classify_pair_structure
from .maxflow import _augment, _corner_flows, source_side
from .game import CharacteristicCache
from .mechanisms import (
    Allocation,
    CoreSelectSweep,
    McSweep,
    ShapleySweep,
    StepTwoFamily,
    _Sweep,
    _payoffs,
    _sum,
    mc_allocate,
    resolve_mechanism,
    shapley,
)
from .network import (
    Edge,
    FlowNetwork,
    RationalLike,
    _off_path_edges,
    _on_path,
    _rescale,
    as_rational,
    resolve_reports,
    scaled_weights,
)

MechanismLike = Union[str, Callable[..., Allocation]]


@dataclass(frozen=True)
class DeviationWitness:
    player: str
    truthful_payoff: Fraction
    best_report: Fraction
    best_payoff: Fraction
    gain: Fraction
    others_reports: dict[str, Fraction]


@dataclass(frozen=True)
class SweepTrace:
    edge: str
    grid: tuple[Fraction, ...]
    values: tuple[Fraction, ...]
    context: dict = field(default_factory=dict)


@dataclass(frozen=True)
class AuditReport:
    property: str
    mechanism: str
    verdict: str  # "pass" | "violation" | "not-tested"
    witness: Optional[dict] = None
    trace: Optional[SweepTrace] = None

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def _report(
    prop: str,
    name: str,
    witness: Optional[dict] = None,
    trace: Optional[SweepTrace] = None,
) -> AuditReport:
    """A pass/violation report: a violation iff there is a witness."""
    verdict = "pass" if witness is None else "violation"
    return AuditReport(prop, name, verdict, witness=witness, trace=trace)


class _Profile:
    """The base of an audit run: a mechanism on the run's network `net` at
    its resolved reports `caps`, the profile every check searches around.
    Each value at the base is computed at most once: the allocation, the
    coalition table the Shapley sweeps share, ``mc``'s step-two cut family
    and one ``mc`` sweep per edge, the scaled reports, the max flow and each
    edge's corner flows, with their residuals when they ran.  `name` labels
    the reports.

    The checks judge in integers: `scaled`, `family` and every flow are
    over the reports' scale."""

    def __init__(self, net: FlowNetwork, mechanism: MechanismLike, caps: dict[str, Fraction]):
        self.net, self.caps = net, caps
        self.name = mechanism if isinstance(mechanism, str) else getattr(mechanism, "__name__", "custom")
        self.mech = resolve_mechanism(mechanism)
        self._flows: dict[str, tuple[int, int]] = {}
        self._residuals: dict[str, list[list[int]]] = {}
        self._views: dict[str, McSweep] = {}

    @classmethod
    def of(
        cls, net: FlowNetwork, mechanism: Union[MechanismLike, "_Profile"], reports: Optional[Mapping[str, RationalLike]]
    ) -> "_Profile":
        """The profile of `net` at the caller's `reports`, resolved here, the
        one place the audits resolve them: `mechanism` when it is already
        that profile, as :func:`audit_all` and :func:`check_dsic` hand it to
        their checks with its own `caps`, which need no resolving, else a
        new profile."""
        if isinstance(mechanism, _Profile) and mechanism.net is net and reports is mechanism.caps:
            return mechanism
        caps = resolve_reports(net, reports)
        if isinstance(mechanism, _Profile) and mechanism.net is net and mechanism.caps == caps:
            return mechanism
        return cls(net, mechanism, caps)

    @cached_property
    def table(self) -> CharacteristicCache:
        return CharacteristicCache(self.net, self.caps)

    @cached_property
    def allocation(self) -> Allocation:
        """For whatever ``mechanisms.shapley`` is bound to, read off `table`."""
        if self.mech is mechanisms.shapley:
            return self.mech(self.net, self.caps, cache=self.table)
        return self.mech(self.net, self.caps)

    @cached_property
    def family(self) -> StepTwoFamily:
        """``mc``'s step-two cut family at the base (:func:`mechanisms.mc_family`),
        compiled once from `scaled`, so over the same scale: every ``mc``
        sweep of :meth:`along` is a view of it."""
        return mechanisms.mc_family(self.net, *self.scaled)

    @cached_property
    def scaled(self) -> tuple[int, list[int]]:
        """The reports scaled once (:func:`network.scaled_weights`): the
        scale every flow of the profile is over, and the weights."""
        return scaled_weights(self.net, self.caps)

    @cached_property
    def _direct_weight(self) -> int:
        """The scaled reports of the direct source-sink edges, added up."""
        weights = self.scaled[1]
        return sum(weights[self.net.position(eid)] for eid in self.net.terminal_edge_ids())

    @cached_property
    def base_flow(self) -> int:
        """The max flow at the base, scaled.  For whatever
        ``mechanisms.mc_allocate`` is bound to, the direct edges' reports
        plus the smallest total of `family`, with no max flow: the direct
        edges lie in every cut, and the family is over the same scale."""
        if self.mech is mechanisms.mc_allocate:
            return self._direct_weight + min(self.family[3], default=0)
        return _augment(self.net, self.scaled[1])[0]

    def flows(self, edge_id: str) -> tuple[int, int]:
        """F(0) and F(B), scaled: the max flows with a non-direct edge at 0
        and at the proxy B of :func:`maxflow._corner_flows`.  Neither
        depends on the edge's own report: F(B) - F(0) is its critical
        value.  For whatever ``mechanisms.mc_allocate`` is bound to, both
        are read off the edge's sweep (:meth:`McSweep.corners`), over the
        family's scale, which is the profile's, with no max flow, else they
        are the two max flows of :func:`maxflow._corner_flows`, whose
        residuals are kept for :meth:`sides`."""
        got = self._flows.get(edge_id)
        if got is None:
            scale, weights = self.scaled
            if self.mech is mechanisms.mc_allocate:
                got = tuple(flow + self._direct_weight for flow in self.along(edge_id).corners())
            else:
                _, got, self._residuals[edge_id] = _corner_flows(self.net, scale, weights, [self.net.position(edge_id)])
            self._flows[edge_id] = got
        return got

    def critical_value(self, edge_id: str) -> Fraction:
        """F(B) - F(0) of :meth:`flows`: the critical value of a non-direct
        edge."""
        at_zero, beyond = self.flows(edge_id)
        return Fraction(beyond - at_zero, self.scaled[0])

    def sides(self, edge_id: str) -> tuple[Fraction, frozenset[str], frozenset[str]]:
        """The critical value of a non-direct edge and the source sides X0
        and XB of the minimum cuts nearest the source with the edge at 0 and
        at B, read off the residuals of :meth:`flows`
        (:func:`maxflow.source_side`), for :class:`CoreSelectSweep`."""
        cv = self.critical_value(edge_id)
        return (cv, *(source_side(self.net, residual) for residual in self._residuals[edge_id]))

    def along(self, edge_id: str) -> Union[McSweep, ShapleySweep, CoreSelectSweep, "_PerPoint"]:
        """The one place the audits choose how to evaluate the mechanism
        along one edge's report, every other report at the base, and on the
        networks that split the edge or merge it with a parallel one.
        Callers enter every sweep here, built from the parts the profile
        holds, and :func:`check_mp` checks a pair before its merged payoff.
        Whatever ``mechanisms.shapley`` is bound to when called gets a
        :class:`ShapleySweep` on `table`; whatever ``mechanisms.mc_allocate``
        is bound to gets an :class:`McSweep` that views `family`, one per
        edge, kept for every later check of the run; whatever
        ``mechanisms.core_select_nearest_cut`` is bound to gets a
        :class:`CoreSelectSweep` that starts from `allocation` and reads
        every other nearest cut off :meth:`sides`, the corner flows'
        residuals, with no max flow of its own.  Any other mechanism is
        called once per point but the base.  Only the ``mc`` views are kept:
        a Shapley sweep holds lists of 2^(m-1) entries for a block of m
        edges."""
        if self.mech is mechanisms.shapley:
            return ShapleySweep(self.table, edge_id)
        if self.mech is mechanisms.mc_allocate:
            view = self._views.get(edge_id)
            if view is None:
                view = self._views[edge_id] = McSweep(self.net, self.caps, edge_id, self.family)
            return view
        if self.mech is mechanisms.core_select_nearest_cut:
            return CoreSelectSweep(self.net, self.scaled, edge_id, self.allocation, self.sides)
        return _PerPoint(self, edge_id)


class _PerPoint(_Sweep):
    """A mechanism without a sweep, a caller's own callable or
    ``mc_no_step_one``, along one edge's report, every other report at the
    profile's: the profile's allocation at the base report, else one
    mechanism call per point, and per split or merge of the edge.  Each
    call's report is one Fraction, and its `Allocation` is read in integers
    once."""

    def __init__(self, profile: _Profile, edge_id: str):
        self._base, self._edge = profile, edge_id

    def _allocated(self, n: int, d: int) -> Allocation:
        base = self._base.caps[self._edge]
        if n * base.denominator == base.numerator * d:
            return self._base.allocation
        return self._base.mech(self._base.net, {**self._base.caps, self._edge: Fraction(n, d)})

    def scaled_payoff(self, n: int, d: int) -> tuple[int, int]:
        paid = self._allocated(n, d).payoffs[self._edge]
        return paid.numerator, paid.denominator

    def scaled_allocation(self, n: int, d: int) -> tuple[list[int], int]:
        den, nums = scaled_weights(self._base.net, self._allocated(n, d).payoffs)
        return nums, den

    def scaled_split_payoff(self, na: int, nb: int, d: int) -> tuple[int, int]:
        """The pair's payoffs on the split network; :func:`check_sp` has
        checked the split."""
        net, caps = self._base.net, self._base.caps
        new_net, new_reports, (id_a, id_b) = _split(net, caps, self._edge, Fraction(na, d), Fraction(nb, d))
        alloc = self._base.mech(new_net, new_reports)
        return _sum(alloc.payoffs[id_a], alloc.payoffs[id_b])

    def scaled_merged_payoff(self, other: str) -> tuple[int, int]:
        new_net, new_reports, merged_id = merge_parallel(self._base.net, self._base.caps, self._edge, other)
        paid = self._base.mech(new_net, new_reports).payoffs[merged_id]
        return paid.numerator, paid.denominator


def _even_steps(span: Fraction, n: int, start: Fraction = Fraction(0)) -> tuple[list[int], int]:
    """The n evenly spaced points start + k*span/n for k = 1..n as
    integers over the common denominator of start and span/n."""
    d = start.denominator * span.denominator * n
    a, b = start.numerator * span.denominator * n, span.numerator * start.denominator
    return [a + k * b for k in range(1, n + 1)], d


def _even_grid(span: Fraction, n: int, start: Fraction = Fraction(0)) -> list[Fraction]:
    """:func:`_even_steps` as Fractions."""
    nums, d = _even_steps(span, n, start)
    return [Fraction(x, d) for x in nums]


def _over(qs: Sequence[Fraction]) -> tuple[list[int], int]:
    """Rationals as integers over the lcm of their denominators."""
    d = _rescale(1, *qs)
    return [q.numerator * (d // q.denominator) for q in qs], d


def _step(a: Union[int, Fraction], b: Union[int, Fraction]) -> int:
    """The sign of the step from a to b."""
    return (b > a) - (b < a)


def best_deviation(
    net: FlowNetwork,
    mechanism: MechanismLike,
    player: str,
    others_reports: Optional[Mapping[str, RationalLike]] = None,
    grid_size: int = 8,
) -> DeviationWitness:
    """Best under-report for one player with everyone else's reports fixed.

    The player's truth is its edge's capacity, which must be > 0 (a split
    can give a part 0).  The grid is `grid_size` evenly spaced reports in
    (0, truth] plus the exact breakpoints: the truth itself, the player's
    critical value, and every other player's report (clipped to the
    feasible interval).  The truth is always included, so the gain is never
    negative.  The others' reports are resolved by :meth:`_Profile.of`; the
    player's own entry there is the base of its sweep, not its truth.  The
    critical value is read off the profile's :meth:`_Profile.flows`, and
    each candidate's payoff comes from :meth:`_Profile.along`: for ``mc``,
    Shapley and ``core-select``, the player's sweep.

    The search runs in integers: the candidates are integers over one
    denominator, a multiple of the grid's and of the reports' scale, and
    are deduplicated and sorted as such; each one reaches the sweep in
    lowest terms, and the payoffs, integers over their own denominators,
    are compared by cross-multiplication.  Fractions are built only for
    the returned witness.
    """
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    cap = net.edge(player).cap
    if cap <= 0:
        raise ValueError("the player's true capacity must be > 0")
    profile = _Profile.of(net, mechanism, others_reports)
    scale, weights = profile.scaled

    den = lcm(cap.denominator * grid_size, scale)
    unit, rescale = cap.numerator * (den // (cap.denominator * grid_size)), den // scale
    top = unit * grid_size  # the truth
    candidates = {unit * k for k in range(1, grid_size)}
    if not net.is_terminal_edge(player):  # a direct edge's critical value is unbounded
        at_zero, beyond = profile.flows(player)
        candidates.add((beyond - at_zero) * rescale)
    k = net.position(player)
    candidates.update(w * rescale for i, w in enumerate(weights) if i != k)

    sweep = profile.along(player)
    truthful = sweep.scaled_payoff(cap.numerator, cap.denominator)
    best_report, (best_num, best_den) = None, truthful
    for report in sorted(x for x in candidates if 0 < x < top):
        g = gcd(report, den)
        num, d = sweep.scaled_payoff(report // g, den // g)
        if num * best_den > best_num * d:
            best_report, best_num, best_den = report, num, d
    return DeviationWitness(
        player=player,
        truthful_payoff=Fraction(*truthful),
        best_report=cap if best_report is None else Fraction(best_report, den),
        best_payoff=Fraction(best_num, best_den),
        gain=Fraction(best_num * truthful[1] - truthful[0] * best_den, best_den * truthful[1]),
        others_reports={eid: q for eid, q in profile.caps.items() if eid != player},
    )


def check_dsic(
    net: FlowNetwork,
    mechanism: MechanismLike,
    reports: Optional[Mapping[str, RationalLike]] = None,
    grid_size: int = 8,
) -> AuditReport:
    """Profitable under-report search for every player, others' reports fixed
    at the given profile (default: the true capacities).  The given profile
    is allocated once: with truthful reports it is every player's truthful
    profile."""
    profile = _Profile.of(net, mechanism, reports)
    for e in net.edges:
        witness = best_deviation(net, profile, e.id, others_reports=profile.caps, grid_size=grid_size)
        if witness.gain.numerator > 0:
            return _report("dsic", profile.name, asdict(witness))
    return _report("dsic", profile.name)


def check_sir(
    net: FlowNetwork,
    mechanism: MechanismLike,
    reports: Optional[Mapping[str, RationalLike]] = None,
) -> AuditReport:
    """Strong individual rationality: no player gets less than her
    stand-alone value, and every player that contributes to some coalition
    gets a strictly positive payoff.  A single edge carries flow alone only
    when it runs directly from source to sink, so its stand-alone value is
    its report if it does and 0 otherwise.  An edge contributes to some
    coalition exactly when it lies on a source-sink path of positively
    reported edges: then the path is worth more with it than without, and
    an edge on no such path adds no flow to any coalition.  The payoffs are
    compared with the reports in integers, by cross-multiplication."""
    profile = _Profile.of(net, mechanism, reports)
    caps, alloc = profile.caps, profile.allocation
    idle = {eid for eid, q in caps.items() if not q.numerator}
    idle.update(_off_path_edges(net.without_edges(idle)))
    for e in net.edges:
        payoff, report = alloc.payoffs[e.id], caps[e.id]
        direct = net.is_terminal_edge(e.id)
        if payoff.numerator * report.denominator < (report.numerator * payoff.denominator if direct else 0):
            witness = {"player": e.id, "payoff": payoff, "stand_alone": report if direct else Fraction(0)}
        elif e.id not in idle and payoff.numerator <= 0:
            witness = {"player": e.id, "payoff": payoff, "report": report}
        else:
            continue
        return _report("sir", profile.name, witness)
    return _report("sir", profile.name)


# ---------------------------------------------------------------------------
# Split / merge transformations


def split_edge(
    net: FlowNetwork,
    reports: Optional[Mapping[str, RationalLike]],
    edge_id: str,
    report_a: RationalLike,
    report_b: RationalLike,
) -> tuple[FlowNetwork, dict[str, Fraction], tuple[str, str]]:
    """Replace one edge by two parallel successors whose reports add up to
    the original report; the true capacity is split in the same proportion.
    Returns the new network, the new report vector, and the successor ids."""
    net.position(edge_id)  # raises KeyError naming an unknown id
    caps = resolve_reports(net, reports)
    qa, qb = as_rational(report_a), as_rational(report_b)
    _check_parts(caps[edge_id], *_over([qa, qb]))
    _check_successors(net, edge_id)
    return _split(net, caps, edge_id, qa, qb)


def _successor_ids(edge_id: str) -> tuple[str, str]:
    return f"{edge_id}_1", f"{edge_id}_2"


def _check_parts(report: Fraction, parts: Sequence[int], den: int) -> None:
    """Raise ValueError unless the parts of every split of an edge reported
    `report`, the pairs qa, qb of `parts` over the denominator `den`, are
    >= 0 and add up to the report."""
    whole = report.numerator * den
    for qa, qb in zip(parts[::2], parts[1::2]):
        if qa < 0 or qb < 0:
            raise ValueError("split parts must be >= 0")
        if (qa + qb) * report.denominator != whole:
            raise ValueError(f"split parts {Fraction(qa, den)} + {Fraction(qb, den)} must add up to the report {report}")


def _check_successors(net: FlowNetwork, edge_id: str) -> None:
    """Raise ValueError unless the ids of the edge's split successors are new."""
    for fresh in _successor_ids(edge_id):
        if fresh in net.positions:
            raise ValueError(f"successor id {fresh!r} already exists")


def _split(
    net: FlowNetwork, caps: dict[str, Fraction], edge_id: str, qa: Fraction, qb: Fraction
) -> tuple[FlowNetwork, dict[str, Fraction], tuple[str, str]]:
    """:func:`split_edge` on resolved reports, after its checks."""
    old = net.edge(edge_id)
    id_a, id_b = _successor_ids(edge_id)
    if caps[edge_id] > 0:
        truth_a = old.cap * qa / caps[edge_id]
    else:
        truth_a = old.cap / 2
    new_net = net.replace_edge(
        edge_id,
        [
            Edge(id_a, old.tail, old.head, truth_a),
            Edge(id_b, old.tail, old.head, old.cap - truth_a),
        ],
    )
    new_reports = {eid: q for eid, q in caps.items() if eid != edge_id}
    new_reports[id_a] = qa
    new_reports[id_b] = qb
    return new_net, new_reports, (id_a, id_b)


def merge_parallel(
    net: FlowNetwork,
    reports: Optional[Mapping[str, RationalLike]],
    edge_a: str,
    edge_b: str,
) -> tuple[FlowNetwork, dict[str, Fraction], str]:
    """Merge two parallel edges (same tail, same head) into one whose truth
    and report are the respective sums."""
    merged_id = _merged_id(net, edge_a, edge_b)
    caps = resolve_reports(net, reports)
    ea, eb = net.edge(edge_a), net.edge(edge_b)
    merged = Edge(merged_id, ea.tail, ea.head, ea.cap + eb.cap)
    without_b = net.without_edges([edge_b])
    new_net = without_b.replace_edge(edge_a, [merged])
    new_reports = {eid: q for eid, q in caps.items() if eid not in (edge_a, edge_b)}
    new_reports[merged_id] = caps[edge_a] + caps[edge_b]
    return new_net, new_reports, merged_id


def _merged_id(net: FlowNetwork, edge_a: str, edge_b: str) -> str:
    """The id of the edge that merges two edges, after checking that they
    differ, are parallel and that the id is new."""
    if edge_a == edge_b:
        raise ValueError("the two edges must differ")
    a, b = net.edge(edge_a), net.edge(edge_b)
    if (a.tail, a.head) != (b.tail, b.head):
        raise ValueError(f"edges {edge_a!r} and {edge_b!r} are not parallel")
    merged_id = f"{edge_a}+{edge_b}"
    if merged_id in net.positions:
        raise ValueError(f"merged id {merged_id!r} already exists")
    return merged_id


def _split_steps(report: Fraction) -> tuple[list[int], int]:
    """Half/half plus the off-center splits report/2 +- k*report/8, that is
    the parts (4 - k) * report/8 and (4 + k) * report/8 for k = 0..3, as
    the flat list of the pairs' parts over one denominator."""
    p = report.numerator
    return [part for k in range(4) for part in ((4 - k) * p, (4 + k) * p)], 8 * report.denominator


def check_sp(
    net: FlowNetwork,
    mechanism: MechanismLike,
    reports: Optional[Mapping[str, RationalLike]],
    edge_id: str,
    split_grid: Optional[Sequence[tuple[RationalLike, RationalLike]]] = None,
) -> AuditReport:
    """Split-proofness: no way of splitting the edge into two parallels pays
    the pair more than the original edge received.  The whole grid is
    checked before any point is evaluated: every part must be >= 0 and
    each point's parts must add up to the report, else ValueError.  Points
    with a zero part are skipped; when every point is (an edge reported at
    0, or such a grid), nothing was tested and the verdict is not-tested.  The
    payoff before the split is the mechanism's own allocation of the given
    profile; the split payoffs come from :meth:`_Profile.along`: for ``mc``,
    the edge's compiled cut family, and for Shapley, the edge's sweep on
    the given profile's coalition table.  The grid's parts are integers
    over one denominator, and the payoffs are compared by
    cross-multiplication; Fractions are built only for a witness."""
    net.position(edge_id)  # raises KeyError naming an unknown id
    profile = _Profile.of(net, mechanism, reports)
    report = profile.caps[edge_id]
    if split_grid is None:
        parts, den = _split_steps(report)
    else:
        parts, den = _over([q for a, b in split_grid for q in (as_rational(a), as_rational(b))])
    _check_parts(report, parts, den)
    pairs = [(qa, qb) for qa, qb in zip(parts[::2], parts[1::2]) if qa and qb]
    if not pairs:
        witness = {"edge": edge_id, "reason": "no split point with both parts > 0"}
        return AuditReport("sp", profile.name, "not-tested", witness=witness)
    _check_successors(net, edge_id)
    before = profile.allocation.payoffs[edge_id]
    points = profile.along(edge_id)
    for qa, qb in pairs:
        num, d = points.scaled_split_payoff(qa, qb, den)
        if num * before.denominator > before.numerator * d:
            return _report(
                "sp",
                profile.name,
                {
                    "edge": edge_id,
                    "split": (Fraction(qa, den), Fraction(qb, den)),
                    "payoff_before": before,
                    "payoff_after": Fraction(num, d),
                    "gain": Fraction(num * before.denominator - before.numerator * d, d * before.denominator),
                },
            )
    return _report("sp", profile.name)


def check_mp(
    net: FlowNetwork,
    mechanism: MechanismLike,
    reports: Optional[Mapping[str, RationalLike]],
    edge_a: str,
    edge_b: str,
) -> AuditReport:
    """Merge-proofness: merging two parallel edges never pays the merged
    player more than the pair received separately.  The pair's payoffs are
    the mechanism's own allocation of the given profile; the merged payoff
    comes from :meth:`_Profile.along`: for ``mc``, the first edge's compiled
    cut family, and for Shapley, read off the given profile's coalition
    table.  The two are compared in integers, by cross-multiplication;
    Fractions are built only for a witness."""
    net.position(edge_a), net.position(edge_b)  # raise KeyError naming an unknown id
    profile = _Profile.of(net, mechanism, reports)
    _merged_id(net, edge_a, edge_b)
    alloc = profile.allocation
    before, den = _sum(alloc.payoffs[edge_a], alloc.payoffs[edge_b])
    num, d = profile.along(edge_a).scaled_merged_payoff(edge_b)
    if num * den > before * d:
        return _report(
            "mp",
            profile.name,
            {
                "edges": (edge_a, edge_b),
                "payoff_before": Fraction(before, den),
                "payoff_after": Fraction(num, d),
                "gain": Fraction(num * den - before * d, d * den),
            },
        )
    return _report("mp", profile.name)


# ---------------------------------------------------------------------------
# Cross monotonicity


def default_increase_grid(base: Fraction) -> list[Fraction]:
    return _even_grid(max(base, Fraction(1)), 6, base)


def check_cm(
    net: FlowNetwork,
    mechanism: MechanismLike,
    reports: Optional[Mapping[str, RationalLike]],
    edge_id: str,
    increase_grid: Optional[Sequence[RationalLike]] = None,
) -> AuditReport:
    """Cross monotonicity: when one player's report rises and the max-flow
    value rises with it all the way, nobody else's payoff may fall.

    A grid point is judged only when the flow gain equals the report gain,
    i.e. the whole step sits in the regime where the edge is still the
    binding bottleneck; steps that overshoot the edge's critical value are
    recorded in the trace but not judged, because past that point the flow
    no longer responds to the report.

    The trace's flows come from the profile's :meth:`_Profile.flows`,
    F(0) and F(B) with the edge at 0 and at the proxy B, not from one max
    flow per point: along the edge's report r the max flow is
    min(F(B), F(0) + r), rising one for one up to the critical value and
    flat after it, so raising the report by d adds min(d, room) with room =
    F(B) - F(base).  For a direct source-sink edge F(r) = F(0) + r and room
    is unbounded, so the profile's :attr:`_Profile.base_flow` gives every
    flow.  For ``mc`` neither runs a max flow.  Payoffs are compared
    only at judged points, so the base allocation and the allocations at
    judged points, from :meth:`_Profile.along`, are set up at the first
    judged point: a cm audit that judges nothing calls no mechanism, so
    none of the mechanism's guards or errors stops it.  An empty grid tests
    nothing: the verdict is not-tested, with no flow or mechanism call.

    The steps, flows and rooms are integers over one denominator, a
    multiple of the grid's and of the reports' scale, and each judged
    point's allocation, integers over its sweep's denominator, is compared
    with the base's by cross-multiplication.  Fractions are built only for
    the trace's grid and flows and for a witness.
    """
    net.position(edge_id)  # raises KeyError naming an unknown id
    profile = _Profile.of(net, mechanism, reports)
    base = profile.caps[edge_id]
    grid = (
        [as_rational(x) for x in increase_grid]
        if increase_grid is not None
        else default_increase_grid(base)
    )
    if not grid:
        witness = {"edge": edge_id, "reason": "empty increase grid"}
        return AuditReport("cm", profile.name, "not-tested", witness=witness)
    # the grid, the flows and the room as integers over den
    points, g = _over(grid)
    k = net.position(edge_id)
    scale, weights = profile.scaled
    den = lcm(g, scale)
    up = den // scale
    if net.is_terminal_edge(edge_id):
        base_flow, room = profile.base_flow * up, None
    else:
        at_zero, beyond = profile.flows(edge_id)
        base_flow = min(beyond, at_zero + weights[k]) * up
        room = beyond * up - base_flow
    flow_before = Fraction(base_flow, den)
    values: list[Fraction] = []
    judged: list[bool] = []
    violation: Optional[dict] = None
    sweep = None  # set up at the first judged point
    for raised, point in zip(grid, points):
        step = point * (den // g) - weights[k] * up
        if step <= 0:
            raise ValueError(f"grid point {raised} does not increase the report {base}")
        is_judged = room is None or step <= room
        flow = Fraction(base_flow + (step if is_judged else room), den)
        values.append(flow)
        judged.append(is_judged)
        if not is_judged or violation is not None:
            continue
        if sweep is None:
            (paid_den, paid), sweep = scaled_weights(net, profile.allocation.payoffs), profile.along(edge_id)
        nums, d = sweep.scaled_allocation(raised.numerator, raised.denominator)
        for i, other in enumerate(net.edge_ids):
            if i != k and nums[i] * paid_den < paid[i] * d:
                violation = {
                    "raised_edge": edge_id,
                    "from": base,
                    "to": raised,
                    "flow_before": flow_before,
                    "flow_after": flow,
                    "hurt_player": other,
                    "payoff_before": profile.allocation.payoffs[other],
                    "payoff_after": Fraction(nums[i], d),
                }
                break
    trace = SweepTrace(
        edge=edge_id,
        grid=tuple(grid),
        values=tuple(values),
        context={"judged": tuple(judged), "base_flow": flow_before},
    )
    return _report("cm", profile.name, violation, trace)


# ---------------------------------------------------------------------------
# Cross-effect sweep of the cut-splitting mechanism


#: Sign of every step of the observed payoff up to the swept edge's critical
#: value and after it, per pair structure.
_SHAPES = {
    PairKind.INDEPENDENT: (+1, 0),
    PairKind.INCLUSIVE: (0, -1),
    PairKind.NEITHER: (+1, -1),
}


def _moves(seq: Sequence[Fraction], direction: int) -> bool:
    """True when every step of the sequence has the sign `direction`."""
    return all(_step(a, b) == direction for a, b in zip(seq, seq[1:]))


def cross_effect_sweep(
    net: FlowNetwork,
    reports: Optional[Mapping[str, RationalLike]],
    swept_edge: str,
    observed_edge: str,
    points_per_interval: int = 8,
) -> AuditReport:
    """Sweep one edge's report and trace another's payoff under the
    cut-splitting mechanism.

    The observed trajectory must match the pair's structure: an independent
    pair rises strictly up to the swept edge's critical value and stays flat
    after; an inclusive pair stays flat and then falls strictly; any other
    pair rises strictly and then falls strictly.  If either edge runs
    directly from source to sink, or the observed edge lies in no minimal
    cut, the payoff never moves at all.

    The sweep sets the swept edge's report at every point, so only the
    terminal-edge grid reads it.  The critical value is
    :meth:`_Profile.critical_value`, and the pair is classified at the
    grid's last point, which is > 0.  The allocations come from
    :meth:`_Profile.along` with this module's ``mc_allocate``: the trace
    holds the sweep's scaled allocations as Fractions.
    """
    if points_per_interval < 2:
        raise ValueError("points_per_interval must be >= 2")
    if swept_edge == observed_edge:
        raise ValueError("the two edges must differ")
    profile = _Profile.of(net, mc_allocate, reports)
    n = points_per_interval
    if net.is_terminal_edge(swept_edge) or net.is_terminal_edge(observed_edge):
        grid = _even_grid(max(Fraction(1), 2 * profile.caps[swept_edge]), n)
        context: dict = {"case": "terminal-edge"}
        witness = {"expected": "constant payoff for terminal-edge pairs"}
        shape = (0, 0)
    else:
        threshold = profile.critical_value(swept_edge)
        grid = _even_grid(threshold, n) + _even_grid(max(threshold, Fraction(1)), n, threshold)
        pair = classify_pair_structure(net, {**profile.caps, swept_edge: grid[-1]}, swept_edge, observed_edge)
        context = {
            "case": pair.kind.value,
            "critical_value": threshold,
            "observed_edge": observed_edge,
        }
        witness = {"case": pair.kind.value, "critical_value": threshold}
        # mc pays an edge in no minimal cut nothing at every point
        shape = _SHAPES[pair.kind] if pair.cuts_with_both or pair.cuts_with_second_only else (0, 0)

    sweep = profile.along(swept_edge)
    paid = (_payoffs(net, *sweep.scaled_allocation(x.numerator, x.denominator)) for x in grid)
    allocations = tuple(Allocation("mc", payoffs) for payoffs in paid)
    values = [alloc.payoffs[observed_edge] for alloc in allocations]
    trace = SweepTrace(
        swept_edge,
        tuple(grid),
        tuple(values),
        {**context, "allocations": allocations},
    )
    # at a zero threshold every rising point sits at 0, so only the tail is testable
    rising = values[:n] if grid[0] else []
    fits = _moves(rising, shape[0]) and _moves(rising[-1:] + values[n:], shape[1])
    return _report("cross-effect", "mc", None if fits else witness, trace)


# ---------------------------------------------------------------------------
# Shapley comparative-statics probe


#: points of the sweep of the first edge's report in `shapley_relation_probe`
_SWEEP_POINTS = 6


def shapley_relation_probe(
    net: FlowNetwork,
    i: str,
    j: str,
    sample_count: int = 50,
    seed: int = 0,
) -> AuditReport:
    """Check that the Shapley payoff of one edge moves with another edge's
    report in the direction the pair's (sampled) constant relation predicts:
    non-decreasing for complements, non-increasing for substitutes.  An
    inconsistent sample leaves the claim refuted and the probe untested."""
    verdict = probe_constant_relation(net, i, j, sample_count, seed)
    if verdict.constant_claim.status != "supported":
        return AuditReport(
            "shapley-relation",
            "shapley",
            "not-tested",
            witness={"constant_claim": verdict.constant_claim.status},
        )
    direction = {
        Relation.COMPLEMENTARY: +1,
        Relation.SUBSTITUTABLE: -1,
        Relation.DEGENERATE: 0,
    }[verdict.relation]
    steps, g = _even_steps(net.edge(i).cap + 1, _SWEEP_POINTS)
    k = net.position(j)
    for config in verdict.sample_configs:
        sweep = _Profile.of(net, shapley, dict(config)).along(i)
        values = [(nums[k], d) for nums, d in (sweep.scaled_allocation(x, g) for x in steps)]
        # a step is bad when it moves against the predicted direction
        if any(_step(a * d, b * c) not in (0, direction) for (a, c), (b, d) in zip(values, values[1:])):
            return _report(
                "shapley-relation",
                "shapley",
                {
                    "pair": (i, j),
                    "relation": verdict.relation.value,
                    "configuration": dict(config),
                    "grid": [Fraction(x, g) for x in steps],
                    "values": [Fraction(*value) for value in values],
                },
            )
    return AuditReport(
        "shapley-relation",
        "shapley",
        "pass",
        witness={
            "pair": (i, j),
            "relation": verdict.relation.value,
            "pattern": verdict.pattern,
            "samples": len(verdict.sample_configs),
        },
    )


# ---------------------------------------------------------------------------
# Random instances


def random_network(
    seed: int,
    max_nodes: int = 6,
    max_edges: int = 8,
    cap_lattice: CapLattice = CapLattice(),
) -> FlowNetwork:
    """Seed-deterministic random instance: internal nodes are ranked so the
    graph is acyclic by construction, edges go from lower to higher rank
    (parallel edges allowed), and everything off a source-sink path is
    pruned away.  The result validates by construction: every kept edge is
    on a source-sink path, which also leaves exactly one source and one
    sink, and the lattice's capacities are positive."""
    if max_nodes < 2:
        raise ValueError("need at least the source and the sink")
    if max_edges < 1:
        raise ValueError(f"max_edges must be >= 1, got {max_edges}")
    rng = random.Random(seed)
    while True:
        n_internal = rng.randint(0, max_nodes - 2)
        ranked = ["s"] + [f"v{k}" for k in range(1, n_internal + 1)] + ["t"]
        ranks = list(range(len(ranked)))
        sink = ranks[-1]
        m = rng.randint(1, max_edges)
        # arcs by rank, the node indices of the on-path walk
        raw: list[tuple[int, int]] = []
        for _ in range(m):
            tail, head = rng.sample(ranks, 2)
            raw.append((tail, head) if tail < head else (head, tail))

        kept = [arc for arc, on_path in zip(raw, _on_path(len(ranked), raw, 0, sink)) if on_path]
        if not kept:
            continue
        used = {0, sink}
        for u, v in kept:
            used.update((u, v))
        nodes = tuple(ranked[u] for u in sorted(used))
        edges = tuple(
            Edge(f"e{k}", ranked[u], ranked[v], cap_lattice.draw(rng))
            for k, (u, v) in enumerate(kept, start=1)
        )
        return FlowNetwork(nodes, edges, "s", "t")


# ---------------------------------------------------------------------------
# Bundled audit runner


def parallel_pairs(net: FlowNetwork) -> list[tuple[str, str]]:
    """Every two edges with the same tail and head, the copies of one arc of
    :attr:`FlowNetwork.topology`, as id pairs sorted by edge index."""
    pairs = []
    for copies in net.topology.copies:
        pairs += combinations([k for k in range(copies.bit_length()) if copies >> k & 1], 2)
    ids = net.edge_ids
    return [(ids[a], ids[b]) for a, b in sorted(pairs)]


#: Property name -> the checks `audit_all` runs for it with default grids,
#: called as ``AUDITS[name](net, mechanism, reports, grid_size)``; the checks
#: are looked up when called, so a replaced ``check_*`` is the one that runs.
AUDITS: dict[str, Callable[..., list[AuditReport]]] = {
    "dsic": lambda net, mech, caps, grid: [check_dsic(net, mech, caps, grid_size=grid)],
    "sir": lambda net, mech, caps, grid: [check_sir(net, mech, caps)],
    "sp": lambda net, mech, caps, grid: [check_sp(net, mech, caps, eid) for eid in net.edge_ids],
    "mp": lambda net, mech, caps, grid: [
        check_mp(net, mech, caps, ea, eb) for ea, eb in parallel_pairs(net)
    ],
    "cm": lambda net, mech, caps, grid: [check_cm(net, mech, caps, eid) for eid in net.edge_ids],
}


def audit_all(
    net: FlowNetwork,
    mechanism: MechanismLike,
    reports: Optional[Mapping[str, RationalLike]] = None,
    grid_size: int = 6,
) -> list[AuditReport]:
    """Run every property check of `AUDITS` in order: the deviation search,
    the rationality check, one split check per edge, one merge check per
    parallel pair and one cross-monotonicity sweep per player.  The checks
    share one :class:`_Profile` of the given reports: its allocation, which
    each of them needs, and each edge's corner flows, which the deviation
    search and the cm sweep both read."""
    profile = _Profile.of(net, mechanism, reports)
    return [report for run in AUDITS.values() for report in run(net, profile, profile.caps, grid_size)]
