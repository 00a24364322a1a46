"""Strategic response computation for a queried voter.

A manipulative voter asked to compare cj and ck (currently ranking cj above
ck) looks for a replacement ranking that answers the other way, stays
consistent with everything she has already revealed, moves as few pairs as
possible, and is *locally dominant*: it can only improve the election outcome
for her, never worsen it, whatever the other voters turn out to want.

Local dominance is decided purely positionally against the ordered vector of
possible winners: the replacement must keep the possible winners in the same
relative order, must not shrink any gap between consecutive possible winners,
and must strictly widen at least one such gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterable, Sequence

from .prefs import (
    CandidateId,
    LinearOrder,
    PartialOrder,
    interval_q,
    swap_distance,
)


class PreconditionViolationError(ValueError):
    """The queried pair was already committed, or inputs break the protocol."""


@dataclass(frozen=True)
class ManipulationOutcome:
    """Result of a manipulation search.

    When ``changed`` is False, ``new_order`` is the input ranking and
    ``distance`` is 0.  When True, ``new_order`` ranks ck above cj, extends
    the voter's revealed relation plus that forced pair, and ``distance`` is
    its swap distance from the input ranking.
    """

    changed: bool
    new_order: LinearOrder
    distance: int


def order_pw(p: LinearOrder, pw: Iterable[CandidateId]) -> tuple[CandidateId, ...]:
    """The possible winners sorted descending by the voter's ranking ``p``."""
    pw = set(pw)
    if not pw:
        raise ValueError("possible-winner set must be nonempty")
    return tuple(c for c in p.ranking if c in pw)


def segment_total(p: LinearOrder, pw_ordered: Sequence[CandidateId]) -> int:
    """Sum of inclusive gap sizes between consecutive possible winners in ``p``."""
    total = 0
    for a, b in zip(pw_ordered, pw_ordered[1:]):
        total += p.rank_of[b] - p.rank_of[a] + 1
    return total


def is_locally_dominant(
    p2: LinearOrder, p: LinearOrder, pw_ordered: Sequence[CandidateId]
) -> bool:
    """Whether ranking ``p2`` locally dominates ``p`` given the possible winners.

    Requires: consecutive possible winners keep their order in ``p2``, no
    inclusive gap between consecutive possible winners shrinks, and at least
    one such gap strictly grows.  A single possible winner admits no growth,
    so nothing dominates.
    """
    grew = False
    for a, b in zip(pw_ordered, pw_ordered[1:]):
        if not p2.prefers(a, b):
            return False
        size_new = p2.rank_of[b] - p2.rank_of[a] + 1
        size_old = p.rank_of[b] - p.rank_of[a] + 1
        if size_new < size_old:
            return False
        if size_new > size_old:
            grew = True
    return grew


def precheck(
    p: LinearOrder,
    pw_ordered: Sequence[CandidateId],
    cj: CandidateId,
    ck: CandidateId,
) -> bool:
    """Positional feasibility test for manipulating the query (cj, ck).

    A minimal locally dominant rewrite can exist only if cj sits above the top
    possible winner and/or ck below the bottom one, with the other endpoint no
    deeper than the possible-winner span.  Queries with both candidates inside
    the span, both above it, or both below it are hopeless and skipped.
    """
    pw_top, pw_bottom = pw_ordered[0], pw_ordered[-1]
    cj_above = p.prefers(cj, pw_top)
    ck_below = p.prefers(pw_bottom, ck)
    if cj_above and ck_below:
        return True
    in_span = lambda c: p.rank_of[pw_top] <= p.rank_of[c] <= p.rank_of[pw_bottom]
    if cj_above and in_span(ck):
        return True
    if ck_below and in_span(cj):
        return True
    return False


def find_manipulation(
    p: LinearOrder,
    q: PartialOrder,
    pw: Collection[CandidateId],
    cj: CandidateId,
    ck: CandidateId,
) -> ManipulationOutcome:
    """Search for the closest locally dominant ranking answering ck over cj.

    Expects the protocol invariants to hold: ``p`` extends ``q``, ``p`` ranks
    cj above ck, and neither direction of the queried pair is committed in
    ``q``.  For each pivot between ck and cj the unique candidate rewrite that
    flips the pair at that split point while honouring ``q`` is constructed:

        (top_keep, pull_above, ck, cj, push_below, tail_keep)

    where candidates above the pivot stay on top unless committed below cj
    (``push_below``), and candidates from the pivot down stay at the bottom
    unless committed above ck (``pull_above``); each block keeps its internal
    ``p`` order.  Across pivots this enumerates every consistent rewrite of
    minimal swap distance.  The closest rewrite overall is returned when it is
    locally dominant (scanning pivots upward from ck, first hit wins ties);
    otherwise the voter keeps her current ranking.
    """
    if q.holds(cj, ck) or q.holds(ck, cj):
        raise PreconditionViolationError(
            f"queried pair ({cj}, {ck}) is already committed"
        )
    if not p.prefers(cj, ck):
        raise PreconditionViolationError(f"voter does not rank {cj} above {ck}")

    if not pw:
        raise ValueError("possible-winner set must be nonempty")
    # the precheck reads only the top and bottom possible winners, which a
    # scan from each end of the ranking finds soonest while the set is large
    top = next(c for c in p.ranking if c in pw)
    bottom = next(c for c in reversed(p.ranking) if c in pw)
    if not precheck(p, (top, bottom), cj, ck):
        return ManipulationOutcome(False, p, 0)
    pw_ordered = order_pw(p, pw)

    committed_below_cj = interval_q(q, "below", cj, include_c=True)
    committed_above_ck = interval_q(q, "above", ck, include_c=True)

    d_abs = None
    d_loc = None
    p_loc = None
    # pivot positions from ck upward to cj, both inclusive
    for pos in range(p.rank_of[ck], p.rank_of[cj] - 1, -1):
        pivot_rank = pos
        top_keep, pull_above, push_below, tail_keep = [], [], [], []
        for c in p.ranking:
            if c == cj or c == ck:
                continue
            if p.rank_of[c] < pivot_rank:
                if c in committed_below_cj:
                    push_below.append(c)
                else:
                    top_keep.append(c)
            else:
                if c in committed_above_ck:
                    pull_above.append(c)
                else:
                    tail_keep.append(c)
        candidate = LinearOrder(top_keep + pull_above + [ck, cj] + push_below + tail_keep)
        d = swap_distance(p, candidate)
        if d_abs is None or d < d_abs:
            d_abs = d
        if (d_loc is None or d < d_loc) and is_locally_dominant(candidate, p, pw_ordered):
            d_loc = d
            p_loc = candidate

    if p_loc is not None and d_loc <= d_abs:
        return ManipulationOutcome(True, p_loc, d_loc)
    return ManipulationOutcome(False, p, 0)
