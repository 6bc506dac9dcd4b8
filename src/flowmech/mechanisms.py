"""Payoff mechanisms for max-flow games and core membership machinery.

All mechanisms act on the *reported* capacities, are efficient (payoffs sum
exactly to the grand coalition's value, so an allocation's total, the sum of
its payoffs, is the max flow), and return exact rationals.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import permutations
from math import factorial, lcm
from typing import Callable, Mapping, Optional, Sequence

from .cuts import arc_cuts, cut_leaving, min_cut_nearest_source
from .game import CharacteristicCache, _submasks, members_of
from .guards import guard_size
from .maxflow import _proxy_big, coalition_value
from .network import (
    FlowNetwork,
    RationalLike,
    as_rational,
    resolve_reports,
    scaled_weights,
)
from .simplex import OPTIMAL, solve_standard_form


@dataclass(frozen=True)
class Allocation:
    """A mechanism's payoff per edge, in edge order.  The payoffs are the
    whole allocation: its `total` is their exact sum, which efficiency makes
    the max flow for every mechanism here."""

    mechanism: str
    payoffs: dict[str, Fraction]

    @property
    def total(self) -> Fraction:
        return sum(self.payoffs.values(), Fraction(0))

    def __getitem__(self, edge_id: str) -> Fraction:
        return self.payoffs[edge_id]


def shapley(
    net: FlowNetwork,
    reports: Optional[Mapping[str, RationalLike]] = None,
    cache: Optional[CharacteristicCache] = None,
) -> Allocation:
    """Exact Shapley value: each player's expected marginal contribution over
    uniformly random arrival orders, via the subset-weight formula with
    big-integer factorials.

    The game is the sum of its source-sink block games (:mod:`game`), and a
    player of one block is a null player of every other, so the subset sum
    runs once per block: over the sub-masks of a block of m edges, with
    weights (s-1)!(m-s)!/m!.  Each coalition value is read once: v(S)
    enters the payoff of each member of S with weight (s-1)!(m-s)!, as the
    first term of its marginal contribution to S, and the payoff of each
    other player j of the block with weight -s!(m-s-1)!, as the second term
    of j's contribution to S + j.  The inner loop stays in integers: the
    weights are scaled by m! and the coalition values by the cache's scale,
    and each payoff is one Fraction.  The loop is :func:`_block_shares`,
    which :class:`ShapleySweep` shares.

    A given `cache` is read as the table of `net` at `reports`; ValueError
    if it holds another network or other reports."""
    if cache is None:
        cache = CharacteristicCache(net, reports)
    elif cache.net != net or cache.caps != resolve_reports(net, reports):
        raise ValueError("the coalition table is of another network or other reports than the ones given")
    edge_ids = cache.net.edge_ids
    paid = dict.fromkeys(edge_ids, Fraction(0))
    for block in cache._blocks:
        members, acc = _block_shares(block, cache._part)
        denom = factorial(len(members)) * cache.scale
        for i in members:
            paid[edge_ids[i]] = Fraction(acc[i], denom)
    return Allocation("shapley", paid)


def _block_shares(block: int, value: Callable[[int], int]) -> tuple[list[int], list[int]]:
    """The block loop of :func:`shapley`: the members (edge indices) of
    `block`, a mask of m edges, and, indexed by edge, m! times each
    member's Shapley value in the game whose sub-masks of the block are
    worth value(mask), an integer."""
    members = [i for i in range(block.bit_length()) if block >> i & 1]
    m = len(members)
    w_in = [0] + [factorial(s - 1) * factorial(m - s) for s in range(1, m + 1)]
    w_out = [factorial(s) * factorial(m - s - 1) for s in range(m)] + [0]
    acc = [0] * block.bit_length()
    for sub in _submasks(block):
        v_s = value(sub)
        if v_s:
            s = sub.bit_count()
            inside, outside = w_in[s] * v_s, -w_out[s] * v_s
            for i in members:
                acc[i] += inside if sub >> i & 1 else outside
    return members, acc


def shapley_permutation_oracle(
    net: FlowNetwork, reports: Optional[Mapping[str, RationalLike]] = None
) -> Allocation:
    """Independent Shapley oracle: average the marginal contribution over all
    n! arrival orders, reading whole-graph coalition values from
    :func:`maxflow.coalition_value`.  Exactly equals :func:`shapley`."""
    caps = resolve_reports(net, reports)
    edge_order = net.edge_ids
    n = len(edge_order)
    guard_size("permutation oracle", n, default_limit=9)
    memo: dict[int, Fraction] = {}

    def value(mask: int) -> Fraction:
        if mask not in memo:
            memo[mask] = coalition_value(net, caps, members_of(net, mask))
        return memo[mask]

    totals = {eid: Fraction(0) for eid in edge_order}
    for order in permutations(range(n)):
        mask = 0
        for i in order:
            before = value(mask)
            mask |= 1 << i
            totals[edge_order[i]] += value(mask) - before
    n_fact = factorial(n)
    return Allocation("shapley-oracle", {eid: q / n_fact for eid, q in totals.items()})


def mc_allocate(
    net: FlowNetwork, reports: Optional[Mapping[str, RationalLike]] = None
) -> Allocation:
    """Cut-splitting mechanism, two steps: (i) every direct source-sink edge
    is paid its report; (ii) with those edges reported at 0, the max-flow
    value of the rest of the graph is split equally across its minimal cuts,
    and each cut's share is divided among its members in proportion to their
    reports.

    Step (ii) runs in scaled integers and pays edge k exactly
    F * w_k * S_a / (K * scale * L), one Fraction per edge; the symbols are
    defined at :func:`_split_over_cuts`."""
    caps = resolve_reports(net, reports)
    direct = {eid: caps[eid] for eid in net.terminal_edge_ids()}
    family = mc_family(net, *scaled_weights(net, caps))
    return Allocation("mc", {**_payoffs(net, *_split_over_cuts(net, *family)), **direct})


def mc_no_step_one(
    net: FlowNetwork, reports: Optional[Mapping[str, RationalLike]] = None
) -> Allocation:
    """Diagnostic variant that skips the stand-alone step and treats direct
    source-sink edges like any other cut member.  Not individually rational;
    kept out of the default mechanism registry."""
    scale, weights = scaled_weights(net, resolve_reports(net, reports))
    return Allocation("mc-no-step-one", _payoffs(net, *_split_over_cuts(net, scale, weights, *arc_cuts(net, weights))))


def _payoffs(net: FlowNetwork, nums: Sequence[int], den: int) -> dict[str, Fraction]:
    """The payoffs nums[k] / den of the edges k, as Fractions in edge order."""
    return {eid: Fraction(x, den) for eid, x in zip(net.edge_ids, nums)}


#: step two's compiled cut family at one report vector: the reports' scale
#: and their scaled weights in edge order (:func:`network.scaled_weights`),
#: the direct edges' at 0, and the arc cuts with their totals
#: (:func:`cuts.arc_cuts`)
StepTwoFamily = tuple[int, list[int], tuple[tuple[int, ...], ...], list[int]]


def mc_family(net: FlowNetwork, scale: int, weights: Sequence[int]) -> StepTwoFamily:
    """The cut family that step two of :func:`mc_allocate` pays over at the
    reports scaled by :func:`network.scaled_weights`, `scale` and `weights`:
    the direct source-sink edges at 0, every other edge at its scaled
    report.  The family keeps the reports' scale, so every report's
    denominator, the direct edges' too, divides its payoffs' denominator.
    Every :class:`McSweep` of that profile is a view of it."""
    weights = [*weights]
    for eid in net.terminal_edge_ids():
        weights[net.position(eid)] = 0
    return (scale, weights, *arc_cuts(net, weights))


def _split_over_cuts(
    net: FlowNetwork, scale: int, weights: Sequence[int], cutsets: Sequence[Sequence[int]], totals: Sequence[int]
) -> tuple[list[int], int]:
    """Step two from its compiled parts: the scaled weights in edge order,
    the arc cuts and their totals.  Returns the payoff of every edge, in
    edge order, as integers over one denominator: the flow split equally
    over the K minimal cuts, each share split among the cut's members in
    proportion to their reports, and 0 for an edge in no cut.

    Runs on arcs, the groups of parallel edges (:func:`cuts.arc_cuts`): a
    minimal cut holds every positive copy of an arc or none, so the cuts of
    the arcs are the cuts of the edges.  Exact in integers throughout.
    With scaled weights w_k (:func:`network.scaled_weights`), arc weights
    the sums of their copies' and cut totals T_M, the scaled flow is
    F = min T_M, and edge k on arc a receives
        sum over M containing a of (F / K) * w_k / T_M / scale
      = F * w_k * S_a / (K * scale * L),
    where L is the lcm of the distinct totals and S_a = sum of L / T_M; a
    zero-weight copy receives 0.  The payoffs add up to F / scale, since
    the sum of w_k * S_a over the edges is the sum over the cuts of
    T_M * L / T_M = K * L.  Returns the numerators F * w_k * S_a in edge
    order and their one denominator K * scale * L, or 0 for every edge
    over `scale` when there is no cut; the callers build Fractions only for
    an allocation they return."""
    if not cutsets:
        return [0] * len(weights), scale
    distinct = set(totals)
    L = lcm(*distinct)
    factor = {T: L // T for T in distinct}
    topology = net.topology
    S = [0] * len(topology.arcs)
    for T, arcs in zip(totals, cutsets):
        f = factor[T]
        for a in arcs:
            S[a] += f
    flow = min(totals)
    return [flow * w * S[a] for w, a in zip(weights, topology.arc_of)], len(cutsets) * scale * L


def _sum(p: Fraction, q: Fraction) -> tuple[int, int]:
    """p + q as an integer numerator over the denominators' product."""
    return p.numerator * q.denominator + q.numerator * p.denominator, p.denominator * q.denominator


class _Sweep:
    """A mechanism along one edge's report r, every other report fixed.

    A sweep computes in scaled integers.  It takes a report r = n/d as an
    integer numerator n >= 0 and a positive denominator d, not necessarily
    in lowest terms, and answers with integer numerators over one positive
    denominator:

    - `scaled_payoff(n, d)`: the edge's own payoff at r, as (num, den);
    - `scaled_allocation(n, d)`: every edge's payoff at r, in edge order,
      as (nums, den);
    - `scaled_split_payoff(na, nb, d)`: the payoffs' sum of two parallel
      copies that replace the edge, reported na/d and nb/d;
    - `scaled_merged_payoff(other)`: the payoff of one edge that replaces
      the edge and the parallel edge `other`, reported the sum of their
      reports.

    These are a sweep's only answers.  The audits judge on them by
    cross-multiplication, and a caller that wants a Fraction builds it
    from one: ``Fraction(*sweep.scaled_payoff(n, d))``, or
    :func:`_payoffs` of an allocation."""

    def scaled_split_payoff(self, na: int, nb: int, d: int) -> tuple[int, int]:
        """The payoffs' sum of two parallel copies a and b that replace the
        edge, reported na/d and nb/d: by default the payoff at their sum.
        The copies are one arc, in every cut together, so a mechanism that
        pays a cut's members by their reports, each its report or a share
        in proportion to it, pays the two copies what it pays one edge
        reported (na + nb)/d."""
        return self.scaled_payoff(na + nb, d)


class McSweep(_Sweep):
    """:func:`mc_allocate` along one edge's report r, every other report
    fixed: `scaled_payoff` is the edge's own payoff and `scaled_allocation`
    the whole allocation, both equal to
    ``mc_allocate(net, {**reports, edge_id: r})``.  `scaled_split_payoff`
    and `scaled_merged_payoff` are the payoffs of the split and merged
    networks that the split and merge audits compare, and `corners` the
    step-two max flows with a non-direct edge at 0 and at the proxy B of
    :func:`maxflow._corner_flows`.  `caps` are the profile's resolved
    reports and `family` its step-two family (:func:`mc_family`), over the
    reports' scale: callers enter through :meth:`audits._Profile.along`,
    and :func:`audits.check_mp` checks the pair that `scaled_merged_payoff`
    merges.

    The sweep's family is the minimal cuts over the arcs that are positive
    with the edge at 0, plus the edge's arc (:func:`cuts.arc_cuts`), and
    each cut's total without the edge, a_M.  The sweep is a view of its
    profile's family: when the edge's arc is positive at the base, those
    arcs are the profile's allowed arcs, so the cuts are the profile's own
    (the same cached tuple), and a_M is T_M less the edge's weight on the
    cuts that hold its arc.  A direct source-sink edge is at 0 in step two
    and in no cut, so it reads the family as it is.  Only when the edge is
    its arc's one positive copy and is reported 0 is the arc missing from
    the family; the sweep then compiles the cuts with the arc allowed.

    At report r = n/d only the cuts that hold the edge's arc move,
    T_M = a_M + r (scaled: the fixed weights times m = scale_r / scale,
    scale_r the lcm of the scale and d, plus the edge's weight w).  So
    `scaled_payoff` reads the cuts that hold the arc, grouped by a_M, and
    the smallest total of the rest; `scaled_allocation` re-pays every edge
    from the stored totals through :func:`_split_over_cuts` and pays step
    one straight into its denominator K * scale_r * L, which the scale and
    d, and so every report's denominator, divide.  A split or a merge
    keeps the family too: the parts of a split, and the merged edge, are
    copies of the same arc, so the arc's weight in every cut total is the
    copies' sum, and each copy is paid by its own weight; the copies of a
    direct edge are each paid their report.  So the split payoff is the
    payoff at the sum.  The edge's own, split and merged payoffs are one
    arc's: :meth:`_paid` applies :func:`_split_over_cuts`' formula to the
    grouped totals alone, with no list over the arcs.

    At r = 0 an arc with no other positive copy leaves the family; the
    allocation then runs step two afresh.  A direct source-sink edge is
    paid its report and moves no other payoff."""

    def __init__(self, net: FlowNetwork, caps: Mapping[str, Fraction], edge_id: str, family: StepTwoFamily):
        self._k = k = net.position(edge_id)
        direct = net.terminal_edge_ids()
        self._net, self._edge, self._is_direct = net, edge_id, edge_id in direct
        self._report = caps[edge_id]
        self._direct = {eid: caps[eid] for eid in direct if eid != edge_id}
        self._scale, weights, cutsets, totals = family
        own = weights[k]
        # the step-two weights with the edge at 0
        self._weights = [*weights]
        self._weights[k] = 0
        arc = net.topology.arc_of[k]
        self._keeps_arc = any(w for w, a in zip(self._weights, net.topology.arc_of) if a == arc)
        if not (self._is_direct or own or self._keeps_arc):
            # the arc is in no cut of the family: add it, with no weight
            cutsets, totals = arc_cuts(net, self._weights, 1 << arc)
        self._cutsets = cutsets
        self._holds = [arc in M for M in cutsets]
        self._totals = [T - own if held else T for T, held in zip(totals, self._holds)]

    @cached_property
    def _grouped(self) -> tuple[Counter[int], Optional[int]]:
        """The distinct totals a_M of the cuts that hold the edge's arc, each
        with the number of such cuts of that total, and the smallest total of
        the other cuts (None when every cut holds the arc)."""
        pairs = list(zip(self._totals, self._holds))
        held = Counter(T for T, holds in pairs if holds)
        rest = min((T for T, holds in pairs if not holds), default=None)
        return held, rest

    def _scaled(self, n: int, d: int) -> tuple[int, int, int]:
        """The scale at the report n/d of the edge, the lcm of the family's
        and d, the factor m of the fixed weights, and the report's step-two
        weight (0 for a direct edge)."""
        scale = lcm(self._scale, d)
        m = scale // self._scale
        return scale, m, 0 if self._is_direct else n * (scale // d)

    def _paid(self, scale: int, m: int, w: int, weight: int) -> tuple[int, int]:
        """The step-two payoff, at `scale`, of a copy of the edge's arc of
        the given `weight`, when the edge's own weight in the cut totals is
        w: each cut that holds the arc totals T = a_M * m + w, any other
        a_M * m.  :func:`_split_over_cuts`' formula for the one arc, read
        off :attr:`_grouped`: the flow F is the smallest of all totals, L
        the lcm of the held T, S the sum of count * L / T, and the payoff
        F * weight * S over K * scale * L.  0 when no cut holds the arc or
        the copy weighs nothing."""
        held, rest = self._grouped
        if not (held and weight):
            return 0, 1
        totals = [T * m + w for T in held]
        flow = min(totals) if rest is None else min(*totals, rest * m)
        L = lcm(*totals)
        share = sum(count * (L // T) for T, count in zip(totals, held.values()))
        return flow * weight * share, len(self._cutsets) * scale * L

    def scaled_payoff(self, n: int, d: int) -> tuple[int, int]:
        if self._is_direct:
            return n, d
        scale, m, w = self._scaled(n, d)
        return self._paid(scale, m, w, w)

    def scaled_allocation(self, n: int, d: int) -> tuple[list[int], int]:
        if n or self._is_direct or self._keeps_arc:
            scale, m, w = self._scaled(n, d)
            weights = [x * m for x in self._weights]
            weights[self._k] = w
            totals = [T * m + w if held else T * m for T, held in zip(self._totals, self._holds)]
            nums, den = _split_over_cuts(self._net, scale, weights, self._cutsets, totals)
        else:
            nums, den = _split_over_cuts(self._net, self._scale, self._weights, *arc_cuts(self._net, self._weights))
        # step one: the direct edges are paid their reports
        for eid, q in self._direct.items():
            nums[self._net.position(eid)] = q.numerator * (den // q.denominator)
        if self._is_direct:
            nums[self._k] = n * (den // d)
        return nums, den

    def scaled_merged_payoff(self, other: str) -> tuple[int, int]:
        """The payoff of one edge that replaces this edge and the parallel
        edge `other`, reported the sum of their reports: the same arc, at
        the same cut totals as the base profile, paid by the summed weight.
        Two direct edges merge into one paid the sum."""
        if self._is_direct:
            return _sum(self._report, self._direct[other])
        scale, m, w = self._scaled(self._report.numerator, self._report.denominator)
        return self._paid(scale, m, w, w + self._weights[self._net.position(other)] * m)

    def corners(self) -> tuple[int, int]:
        """The step-two max flows of a non-direct edge, scaled by the
        family's scale, with the edge at 0 and at the proxy B, read off the
        family with no max flow; the direct edges lie in every cut and add
        their reports to both flows.  With the edge at 0 the cheapest cut
        costs min a_M; with it at B a cut that holds its arc costs more
        than any other, so the cheapest is the smallest a_M of the cuts
        without the arc.  One always exists: with the edge's arc left alone
        there is no source-sink path, so the other allowed arcs hold a
        minimal cut.  An empty family has no source-sink path, and both
        flows are 0."""
        held, rest = self._grouped
        if rest is None:
            return 0, 0
        return min([rest, *held]), rest


class ShapleySweep(_Sweep):
    """:func:`shapley` along one edge's report r, every other report fixed,
    read from the coalition table of the base profile: `scaled_payoff` is
    the edge's own payoff and `scaled_allocation` the whole allocation,
    both equal to ``shapley(net, {**reports, edge_id: r})``.
    `scaled_split_payoff` and `scaled_merged_payoff` are the payoffs of the
    split and merged networks that the split and merge audits compare.  `table` is the base profile's
    coalition table, whose network and reports the sweep reads.

    Only edge k's block moves.  Along r, a coalition S + k of that block
    carries min(v_{S+k}(B), v_S + r): the flow rises one for one while k is
    a bottleneck and is flat after.  For r at or below the base report b,
    v_{S+k}(r) = min(v_{S+k}(b), v_S + r), read off the base table.  Above
    b the flat part is v_{S+k}(B), with B the proxy of
    :func:`maxflow._corner_flows`, from one table with k at B, built on
    first use and read only where k is a bottleneck at b (elsewhere
    v_{S+k}(B) = v_{S+k}(b)).  A direct source-sink edge adds its report.
    Everything runs in integers scaled by a multiple of the table's scale:
    a payoff over m! times it, an allocation over M! times it, M the size
    of the largest block.  `scaled_allocation` runs :func:`shapley`'s block loop only
    on the block's values at r, and reads the other blocks' payoffs, paid
    once per sweep."""

    def __init__(self, table: CharacteristicCache, edge_id: str):
        self._net = net = table.net
        self._k = k = net.position(edge_id)
        self._edge, self._table = edge_id, table
        self._bit = bit = 1 << k
        self._block = block = next(b for b in table._blocks if b & bit)
        self._is_direct = net.is_terminal_edge(edge_id)
        self._scale, self._report = table.scale, table.caps[edge_id]
        # the coalitions S of the block without k, ascending, and, read in
        # that order so the table's bounds apply, v_S and v_{S+k} at b
        self._others = [0] + _submasks(block ^ bit)
        self._alone = [table._part(S) for S in self._others]
        self._with = [table._part(S | bit) for S in self._others]
        self._players = n = block.bit_count()
        # k's subset weight s!(n-1-s)! for each S of size s
        self._weights = [factorial(S.bit_count()) * factorial(n - 1 - S.bit_count()) for S in self._others]

    @cached_property
    def _at_big(self) -> list[int]:
        """v_{S+k}(B) for each S, scaled by the table's scale."""
        table, bit, scale = self._table, self._bit, self._scale
        w = table._weights[self._k]
        big = Fraction(_proxy_big(scale, table._weights, [self._k]), scale)
        at_big = CharacteristicCache(self._net, {**table.caps, self._edge: big})
        ratio = scale // at_big.scale
        return [
            at_big._part(S | bit) * ratio if top == v + w else top
            for S, v, top in zip(self._others, self._alone, self._with)
        ]

    @cached_property
    def _unmoved(self) -> tuple[list[int], int]:
        """The Shapley payoffs of the other blocks' game at the base profile,
        which k's report does not move (k's block pays 0 in it), in edge
        order over M! times the table's scale, M the size of the largest
        block: each block's m! divides M!."""
        table = self._table
        big = factorial(max(b.bit_count() for b in table._blocks))
        nums = [0] * table.n
        for block in table._blocks:
            if block != self._block:
                members, acc = _block_shares(block, table._part)
                factor = big // factorial(len(members))
                for i in members:
                    nums[i] = acc[i] * factor
        return nums, big

    def _joined(self, n: int, d: int, scale: int) -> list[int]:
        """v_{S+k} with k reported n/d, for each S, scaled by `scale`, a
        multiple of the table's scale and of d."""
        m = scale // self._scale
        w = n * (scale // d)
        if self._is_direct:
            return [v * m + w for v in self._alone]
        report = self._report
        tops = self._with if n * report.denominator <= report.numerator * d else self._at_big
        return [min(top * m, v * m + w) for top, v in zip(tops, self._alone)]

    def scaled_payoff(self, n: int, d: int) -> tuple[int, int]:
        scale = lcm(self._scale, d)
        m = scale // self._scale
        gain = 0
        for c, v, joined in zip(self._weights, self._alone, self._joined(n, d, scale)):
            gain += c * (joined - v * m)
        return gain, factorial(self._players) * scale

    def scaled_allocation(self, n: int, d: int) -> tuple[list[int], int]:
        scale = lcm(self._scale, d)
        m, bit = scale // self._scale, self._bit
        value = {S: v * m for S, v in zip(self._others, self._alone)}
        value.update(zip([S | bit for S in self._others], self._joined(n, d, scale)))
        members, acc = _block_shares(self._block, value.__getitem__)
        rest, big = self._unmoved
        nums = [x * m for x in rest]
        factor = big // factorial(self._players)
        for i in members:
            nums[i] = acc[i] * factor
        return nums, big * scale

    def scaled_split_payoff(self, na: int, nb: int, d: int) -> tuple[int, int]:
        """The payoffs' sum of two parallel copies a and b that replace the
        edge, reported na/d and nb/d: the Shapley values of a and b in the
        block's game with one more player, where S + a is worth
        v_{S+k}(na/d), S + b v_{S+k}(nb/d) and S + a + b
        v_{S+k}((na + nb)/d)."""
        scale = lcm(self._scale, d)
        m, n = scale // self._scale, self._players + 1
        at_a, at_b, both = (self._joined(q, d, scale) for q in (na, nb, na + nb))
        weight = [factorial(s) * factorial(n - 1 - s) for s in range(n)]
        gain = 0
        for S, v, x, y, z in zip(self._others, self._alone, at_a, at_b, both):
            s = S.bit_count()
            gain += weight[s] * (x + y - 2 * v * m) + weight[s + 1] * (2 * z - x - y)
        return gain, factorial(n) * scale

    def scaled_merged_payoff(self, other: str) -> tuple[int, int]:
        """The payoff of one edge that replaces this edge and the parallel
        edge `other`, reported the sum of their reports: its Shapley value
        in the game where S + merged is worth v_{S+k+other}, all read off
        the base table.  S ranges over the rest of the edge's block: two
        direct edges, the only parallel pair in two blocks, sit in blocks
        of their own."""
        table = self._table
        pair = self._bit | 1 << self._net.position(other)
        rest = self._block & ~pair
        n = rest.bit_count() + 1
        gain = 0
        for S in [0] + _submasks(rest):
            s = S.bit_count()
            gain += factorial(s) * factorial(n - 1 - s) * (table.value_scaled(S | pair) - table.value_scaled(S))
        return gain, factorial(n) * self._scale


@dataclass(frozen=True)
class CoreVerdict:
    in_core: bool
    coalition: Optional[frozenset[str]] = None
    coalition_value: Optional[Fraction] = None
    payoff_sum: Optional[Fraction] = None

    def __bool__(self) -> bool:
        return self.in_core


def core_check(
    net: FlowNetwork,
    reports: Optional[Mapping[str, RationalLike]],
    payoffs: Mapping[str, RationalLike] | Allocation,
) -> CoreVerdict:
    """Exact core membership: efficiency plus every coalition constraint.
    Returns the violated coalition with the smallest bit mask, so failures
    are reproducible.

    Runs in scaled integers: the payoffs times D, the lcm of their
    denominators, are summed per coalition (each mask's sum extends the sum
    of the mask without its lowest bit), and sum * scale is compared with
    the table's value_scaled * D.  After efficiency, the scan runs over the
    sub-masks of each source-sink block (:mod:`game`), not all 2^n masks,
    and still returns the coalition a whole-graph scan finds: a violated
    coalition S spanning blocks has a violated part S & c in some block c,
    since x(S) and v(S) are the sums of their parts, and that part has a
    smaller mask.  Raises KeyError naming any missing or unknown edge ids,
    and TypeError for a float payoff."""
    if isinstance(payoffs, Allocation):
        payoffs = payoffs.payoffs
    cache = CharacteristicCache(net, reports)
    n = cache.n
    missing = [eid for eid in net.edge_ids if eid not in payoffs]
    unknown = sorted(set(payoffs) - set(net.positions))
    if missing or unknown:
        problems = [f"no payoff for edges {missing}"] if missing else []
        problems += [f"payoffs for unknown edges {unknown}"] if unknown else []
        raise KeyError("; ".join(problems))
    D, xs = scaled_weights(net, {eid: as_rational(payoffs[eid], what="payoff") for eid in net.edge_ids})
    scale = cache.scale
    grand = (1 << n) - 1
    if sum(xs) * scale != cache.value_scaled(grand) * D:
        return CoreVerdict(False, members_of(net, grand), cache.value(grand), Fraction(sum(xs), D))
    worst: Optional[tuple[int, int]] = None  # the smallest violated mask and its payoff sum
    for block in cache._blocks:
        sums = {0: 0}
        for mask in _submasks(block):
            if worst is not None and mask > worst[0]:
                break
            low = mask & -mask
            sums[mask] = paid = sums[mask ^ low] + xs[low.bit_length() - 1]
            if paid * scale < cache._part(mask) * D:
                worst = (mask, paid)
                break
    if worst is None:
        return CoreVerdict(True)
    mask, paid = worst
    return CoreVerdict(False, members_of(net, mask), cache.value(mask), Fraction(paid, D))


def core_bounds(
    net: FlowNetwork,
    reports: Optional[Mapping[str, RationalLike]],
    edge_id: str,
) -> tuple[Fraction, Fraction]:
    """Smallest and largest payoff the edge can receive in the core,
    by exact LP over the coalition constraint system.

    The core is the product of the cores of the source-sink block games
    (:mod:`game`), so only the edge's own block enters the LP, and only
    that block's coalitions are computed.  Solved on the dual: with m
    players the primal has up to 2^m rows, the dual only m, so the tableau
    stays small."""
    k = net.position(edge_id)
    cache = CharacteristicCache(net, reports)
    block = next(b for b in cache._blocks if b >> k & 1)
    return _CoreDual(cache, block).bounds(k)


def core_bounds_all(
    net: FlowNetwork, reports: Optional[Mapping[str, RationalLike]] = None
) -> dict[str, tuple[Fraction, Fraction]]:
    """:func:`core_bounds` of every edge, all read from one coalition table
    and one dual constraint matrix per block."""
    cache = CharacteristicCache(net, reports)
    bounds = {}
    for block in cache._blocks:
        dual = _CoreDual(cache, block)
        bounds.update((k, dual.bounds(k)) for k in range(cache.n) if block >> k & 1)
    return {eid: bounds[k] for k, eid in enumerate(net.edge_ids)}


class _CoreDual:
    """The constraint matrix and objective, in integers, of the dual of
    "min sign*x_target over the core of one block's game":
        max sum_S v(S) y_S + v(K) z  s.t.  sum_{S contains i} y_S + z = c_i,
    over the proper sub-coalitions S of the block K and its members i, with
    y >= 0 and z free (split into z+ - z-); the objective is scaled by the
    table's `scale`.  The core of the whole game is the product of the
    block cores, so this LP gives the same bounds as the one over all
    coalitions.  The size guard still counts every edge of the network.

    Only the essential coalitions get a column: singletons, and coalitions
    S in which every member i is essential, v(S - i) < v(S).  If some
    member i is not, then x(S - i) >= v(S - i) = v(S) and x_i >= v({i}) >= 0
    already give x(S) >= v(S), so the core, and with it every bound, is the
    same.  Flow games are totally balanced (Kalai & Zemel 1982), so the
    core, and so this LP, is never empty.

    The singleton columns come first, one per member in row order, so they
    are a unit basis with basic solution c: feasible when sign > 0.  When
    sign < 0, z- (a column of -1s) takes the target's row instead, and the
    basic solution is z- = 1 and y_i = 1 for every other member.  A block of
    one edge keeps its singleton, a duplicate of z+, so both bases exist
    for it too."""

    def __init__(self, cache: CharacteristicCache, block: int):
        guard_size("core bounds LP", cache.n, default_limit=12)
        members = [i for i in range(cache.n) if block >> i & 1]
        value = cache._part
        masks = [1 << i for i in members] + [
            mask
            for mask in _submasks(block)[:-1]
            if mask & (mask - 1)
            and all(value(mask & ~(1 << i)) < value(mask) for i in members if mask >> i & 1)
        ]
        v_block = value(block)
        self.obj = [value(mask) for mask in masks] + [v_block, -v_block]
        self.A = [[mask >> i & 1 for mask in masks] + [1, -1] for i in members]
        self.scale, self.block = cache.scale, block

    def bounds(self, k: int) -> tuple[Fraction, Fraction]:
        """The bounds of the block's member at position k, whose row is the
        number of members below it."""
        target = (self.block & ((1 << k) - 1)).bit_count()
        return self._extreme(target, sign=1), -self._extreme(target, sign=-1)

    def _extreme(self, target: int, sign: int) -> Fraction:
        """min sign*x_target over the core."""
        rows = range(len(self.A))
        b = [sign if i == target else 0 for i in rows]
        basis = [len(self.obj) - 1 if sign < 0 and i == target else i for i in rows]
        result = solve_standard_form(self.A, b, self.obj, basis)
        if result.status != OPTIMAL:
            raise RuntimeError(
                f"core bound LP ended {result.status}; the core of a max-flow game "
                "is never empty, so this indicates a solver defect"
            )
        return result.value / self.scale


def core_select_nearest_cut(
    net: FlowNetwork, reports: Optional[Mapping[str, RationalLike]] = None
) -> Allocation:
    """Core-selection rule: pay each member of the minimum cut nearest the
    source its reported capacity, everyone else zero.  The payoffs add up
    to the cut's total, the max-flow value."""
    caps = resolve_reports(net, reports)
    cut = min_cut_nearest_source(net, caps)
    zero = Fraction(0)
    return Allocation("core-select", {eid: (caps[eid] if eid in cut else zero) for eid in net.edge_ids})


class CoreSelectSweep(_Sweep):
    """:func:`core_select_nearest_cut` along one edge's report r, every
    other report fixed: `scaled_payoff` is the edge's own payoff and
    `scaled_allocation` the whole allocation, both equal to
    ``core_select_nearest_cut(net, {**reports, edge_id: r})``.
    `scaled_split_payoff` and `scaled_merged_payoff` are the payoffs of the
    split and merged networks that the split and merge audits compare.  `scaled`
    is the resolved reports' scale and their scaled weights in edge order
    (:func:`network.scaled_weights`), `base` the allocation at them, and
    `sides(edge_id)` gives a non-direct edge's critical value cv =
    F(B) - F(0) and the source sides X0 and XB of the minimum cuts nearest
    the source at the corner flows with the edge at 0 and at the proxy B
    (:func:`maxflow._corner_flows`, :func:`maxflow.source_side`).

    The nearest cut's source side is the smallest among the minimum cuts,
    and every member of the cut is paid its report.  For cv > 0:

    - for r < cv, every minimum cut is a minimum cut at r = 0, and the
      edge leaves each of them: F(0) + r lies below every cut without the
      edge.  So the family of minimum cuts, and its smallest side X0, does
      not move;
    - for r > cv, no minimum cut holds the edge, so the family is the one
      at B, with smallest side XB;
    - at r = cv the family is the union of the two, and its smallest side
      is the meet X0 & XB.  X0 & XB is itself a minimum cut of one of the
      two families, so X0 and XB are nested, and the meet is the smaller.
      Both orders occur: fig1's e1 has X0 < XB, and fig1's e3 XB < X0.

    With cv = 0 the edge lies in no minimum cut for r > 0, and the two
    families meet at r = 0 = cv.  A direct source-sink edge is in every
    cut and leaves the source side of every residual: its nearest cut is
    the base cut, with the edge in it exactly when r > 0.  The parts of a
    split, and a merged edge, are copies of one arc, so every cut holds
    all of them or none: the split payoff at (qa, qb) is the payoff at
    qa + qb, and the merged payoff the sum of the two payoffs at the base.

    So the sweep runs no max flow: the base report reads `base`'s cut,
    and every other report the cut leaving its side.  `sides` is read
    once, at the first report other than the base.  A payoff is the
    report n/d itself or 0, and an allocation is the members' scaled
    reports over the lcm of the reports' scale and d."""

    def __init__(
        self,
        net: FlowNetwork,
        scaled: tuple[int, Sequence[int]],
        edge_id: str,
        base: Allocation,
        sides: Callable[[str], tuple[Fraction, frozenset[str], frozenset[str]]],
    ):
        self._is_direct = net.is_terminal_edge(edge_id)  # raises KeyError naming an unknown id
        self._k = k = net.position(edge_id)
        self._net, self._edge, self._scaled_caps = net, edge_id, scaled
        self._report = Fraction(scaled[1][k], scaled[0])
        self._base, self._sides = base, sides
        self._base_cut = frozenset(eid for eid, paid in base.payoffs.items() if paid)

    @cached_property
    def _corner_sides(self) -> tuple[Fraction, frozenset[str], frozenset[str]]:
        return self._sides(self._edge)

    def _cut(self, n: int, d: int) -> frozenset[str]:
        """The nearest cut with the edge reported n/d."""
        report = self._report
        if n * report.denominator == report.numerator * d:
            return self._base_cut
        if self._is_direct:
            return self._base_cut | {self._edge} if n else self._base_cut - {self._edge}
        cv, low, high = self._corner_sides
        above = n * cv.denominator - cv.numerator * d
        side = low if above < 0 else high if above > 0 else low & high
        weights = [*self._scaled_caps[1]]
        weights[self._k] = n
        return cut_leaving(self._net, weights, side)

    def scaled_payoff(self, n: int, d: int) -> tuple[int, int]:
        return (n, d) if self._edge in self._cut(n, d) else (0, 1)

    def scaled_allocation(self, n: int, d: int) -> tuple[list[int], int]:
        cut = self._cut(n, d)
        scale, weights = self._scaled_caps
        common = lcm(scale, d)
        m = common // scale
        nums = [w * m if eid in cut else 0 for eid, w in zip(self._net.edge_ids, weights)]
        nums[self._k] = n * (common // d) if self._edge in cut else 0
        return nums, common

    def scaled_merged_payoff(self, other: str) -> tuple[int, int]:
        """The payoff of one edge that replaces this edge and the parallel
        edge `other`, reported the sum of their reports: the two payoffs at
        the base, added."""
        return _sum(self._base.payoffs[self._edge], self._base.payoffs[other])


#: Default registry used by audits and the command line.  The diagnostic
#: variant without the stand-alone step is deliberately not registered.
MECHANISMS: dict[str, Callable[..., Allocation]] = {
    "shapley": shapley,
    "mc": mc_allocate,
    "core-select": core_select_nearest_cut,
}


def resolve_mechanism(mechanism: str | Callable[..., Allocation]) -> Callable[..., Allocation]:
    if callable(mechanism):
        return mechanism
    try:
        return MECHANISMS[mechanism]
    except KeyError:
        raise KeyError(
            f"unknown mechanism {mechanism!r}; choose from {sorted(MECHANISMS)}"
        ) from None
