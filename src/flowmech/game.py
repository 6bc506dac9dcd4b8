"""Coalitions and the characteristic function of a max-flow game.

Each edge is a player; a coalition's value is the max flow achievable with
only its members' edges at their reported capacities.  Coalitions are bit
masks over the network's edge order (bit 0 = first edge).

Deleting the source and the sink splits the edges into blocks that share
only the terminals (:func:`network._blocks`), so every source-sink path lies
in one block and v(S) is the sum over the blocks c of v(S & c).  The game is
a sum of games on disjoint players, and a table of the sub-coalitions of
each block, the sum of 2^|c| values, gives all 2^n.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Optional

from .cuts import positive_minimal_cuts
from .guards import guard_size
from .maxflow import _augment
from .network import FlowNetwork, RationalLike, resolve_reports, scaled_weights


def mask_of(net: FlowNetwork, members: Iterable[str]) -> int:
    """The coalition's bit mask; KeyError naming an unknown id."""
    mask = 0
    for eid in members:
        mask |= 1 << net.position(eid)
    return mask


def members_of(net: FlowNetwork, mask: int) -> frozenset[str]:
    return frozenset(eid for i, eid in enumerate(net.edge_ids) if mask >> i & 1)


def _submasks(mask: int) -> list[int]:
    """The non-empty sub-masks of `mask`, ascending; the last is `mask`."""
    subs = []
    sub = mask
    while sub:
        subs.append(sub)
        sub = (sub - 1) & mask
    return subs[::-1]


class CharacteristicCache:
    """Memo table from coalition masks to values, kept by source-sink block.

    Two-phase use: fill it (populate, or the course of one computation),
    then share read-only; a fully populated cache never mutates again, so
    concurrent evaluations may read it freely.

    `_blocks` holds the network's blocks as edge masks
    (:attr:`FlowNetwork.blocks`), and the memo holds
    only masks inside one block: the value of a coalition is the sum of the
    memoized values of its parts `mask & block`.  So `populate` computes
    the sum over blocks of 2^|block| - 1 values, and `len` counts those
    entries plus the empty coalition.

    One table holds every value as an integer scaled by `scale`, the lcm of
    the report denominators (:func:`network.scaled_weights`); a coalition's
    value is a sum of reports, so the scaled value is exact.
    method="maxflow" runs one integer max-flow per coalition on the scaled
    weights, unless the table's own bounds pin the value first: a coalition
    without a source edge or without a sink edge is worth 0; v(S) is at
    most the total of S's source edges and of its sink edges; and v(S - k)
    <= v(S) <= v(S - k) + w_k for each member k whose S - k is already in
    the table.  Filling a block in ascending mask order, as `populate`,
    `shapley` and the core bounds do, finds every S - k there; in any other
    order a value the bounds leave open still gets its max flow, so every
    value is exact.  method="cuts" uses duality instead: the value of S is the
    cheapest minimal cut over the positively-reported edges counting only
    members of S; it needs that cut family but makes whole-table fills
    much faster.  Either way, a coalition inside one block gets that
    block's value, since the other blocks' edges are absent from it.  So
    the cut table keeps, per block, the distinct parts `cut & block` of the
    whole-graph cuts, and prices a coalition against its own block's parts
    only: the other blocks' members add nothing to its total.
    """

    def __init__(
        self,
        net: FlowNetwork,
        reports: Optional[Mapping[str, RationalLike]] = None,
        method: str = "maxflow",
    ):
        if method not in ("maxflow", "cuts"):
            raise ValueError(f"unknown method {method!r}")
        self.net = net
        self.caps = resolve_reports(net, reports)
        self.n = len(net.edges)
        guard_size("coalition table", self.n, default_limit=20)
        self.method = method
        self.scale, self._weights = scaled_weights(net, self.caps)
        self._blocks = net.blocks
        self._int_table: dict[int, int] = {0: 0}
        if method == "maxflow":
            self._from_source = sum(1 << k for k, e in enumerate(net.edges) if e.tail == net.source)
            self._into_sink = sum(1 << k for k, e in enumerate(net.edges) if e.head == net.sink)
        else:
            cuts, _ = positive_minimal_cuts(net, self._weights)
            self._cuts_of_edge: list[list[list[tuple[int, int]]]] = [[] for _ in range(self.n)]
            for block in self._blocks:
                parts = {tuple(k for k in cut if block >> k & 1) for cut in cuts}
                members = [[(k, self._weights[k]) for k in part] for part in sorted(parts)]
                for k in range(block.bit_length()):
                    if block >> k & 1:
                        self._cuts_of_edge[k] = members

    def value(self, mask: int) -> Fraction:
        return Fraction(self.value_scaled(mask), self.scale)

    def value_scaled(self, mask: int) -> int:
        """The coalition's value times `scale`, an exact integer: the sum of
        the values of its parts in each block."""
        total = 0
        for block in self._blocks:
            total += self._part(mask & block)
        return total

    def _part(self, part: int) -> int:
        """The scaled value of a mask inside one block, memoized."""
        got = self._int_table.get(part)
        if got is None:
            got = self._int_table[part] = self._compute(part)
        return got

    def populate(self) -> "CharacteristicCache":
        for block in self._blocks:
            for sub in _submasks(block):
                self._part(sub)
        return self

    def __len__(self) -> int:
        return len(self._int_table)

    def _compute(self, mask: int) -> int:
        if self.method == "cuts":
            return self._min_cut_int(mask)
        from_source, into_sink = mask & self._from_source, mask & self._into_sink
        if not (from_source and into_sink):
            return 0
        # v(S) lies in [lo, hi]: at most what S's source edges or its sink
        # edges carry, and for each member k whose S - k is in the table,
        # v(S - k) <= v(S) <= v(S - k) + w_k
        weights, table = self._weights, self._int_table
        lo, hi = 0, min(self._total(from_source), self._total(into_sink))
        rest = mask
        while rest and lo < hi:
            low = rest & -rest
            rest ^= low
            below = table.get(mask ^ low)
            if below is not None:
                if below > lo:
                    lo = below
                below += weights[low.bit_length() - 1]
                if below < hi:
                    hi = below
        if lo == hi:
            return lo
        return _augment(self.net, [w if mask >> i & 1 else 0 for i, w in enumerate(weights)])[0]

    def _total(self, mask: int) -> int:
        """The sum of the weights of the edges in `mask`."""
        total = 0
        while mask:
            low = mask & -mask
            total += self._weights[low.bit_length() - 1]
            mask ^= low
        return total

    def _min_cut_int(self, mask: int) -> int:
        """The cheapest cut counting only members of `mask`, a mask inside
        one block, over that block's parts of the minimal cuts."""
        best: Optional[int] = None
        for members in self._cuts_of_edge[(mask & -mask).bit_length() - 1]:
            total = 0
            for i, w in members:
                if mask >> i & 1:
                    total += w
            if best is None or total < best:
                best = total
                if best == 0:
                    break
        return best if best is not None else 0
