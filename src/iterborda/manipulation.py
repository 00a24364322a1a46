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

One search costs O(m) for m candidates, plus O(m log m) per ranking it
builds: the swap distance of every candidate rewrite follows from running
counts of committed candidates in two blocks, and a ranking is built only for
the rewrites at the smallest distance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterable, Sequence

import numpy as np

from .prefs import CandidateId, LinearOrder
# swap_distance is unused here; it stays bound because perfbench/tracer.py patches it by name
from .prefs import swap_distance  # noqa: F401


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
    top: CandidateId,
    bottom: CandidateId,
    cj: CandidateId,
    ck: CandidateId,
) -> bool:
    """Positional feasibility test for manipulating the query (cj, ck).

    ``top`` and ``bottom`` are the possible winners ``p`` ranks highest and
    lowest, the ends of the possible-winner span.  A minimal locally dominant
    rewrite can exist only if the query straddles an end of the span: cj
    above ``top`` with ck at or below it, or ck below ``bottom`` with cj at
    or above it.  Queries with both candidates inside the span, both above
    it, or both below it are hopeless and skipped.
    """
    rank = p.rank_of
    lo, hi = rank[cj], rank[ck]
    return lo < rank[top] <= hi or lo <= rank[bottom] < hi


def find_manipulation(
    p: LinearOrder,
    q: np.ndarray,
    pw: Collection[CandidateId],
    cj: CandidateId,
    ck: CandidateId,
) -> ManipulationOutcome:
    """Search for the closest locally dominant ranking answering ck over cj.

    Expects the protocol invariants to hold: ``p`` extends ``q``, ``p`` ranks
    cj above ck, and neither direction of the queried pair is committed in
    ``q``.  Let B be the candidates strictly between cj and ck in ``p``, PB
    those committed below cj and CA those committed above ck (disjoint, or
    cj over ck would be committed).  A pivot splits B into its upper part T
    and lower part U, and the unique rewrite that flips the pair there while
    honouring ``q`` is

        (above cj, T - PB, U & CA, ck, cj, T & PB, U - CA, below ck)

    with each block in its ``p`` order.  Its swap distance from ``p`` is

        1 + |B| + inv(T) + inv(U) + |T & PB| * |U & CA|

    where inv(T) counts PB members of T ranked above non-PB members of T and
    inv(U) counts non-CA members of U ranked above CA members of U.  Across
    pivots this enumerates every consistent rewrite of minimal swap distance.
    Moving the pivot up from ck one rank moves one candidate from T to U and
    updates every term in O(1), so all distances cost O(m).  A ranking is
    built, in O(m log m), only at the pivots of smallest distance, scanned
    upward from ck, which never lowers cj: of the tied minimal dominant
    rewrites, the voter adopts the first, the one that ranks cj lowest, at
    that smallest distance, with no recount.  If none is, or if ``precheck``
    rejects the query on the possible winners ``p`` ranks highest and
    lowest, she keeps her current ranking.
    """
    if q.item(cj, ck) or q.item(ck, cj):
        raise PreconditionViolationError(
            f"queried pair ({cj}, {ck}) is already committed"
        )
    rank = p.rank_of
    lo, hi = rank[cj], rank[ck]
    if lo >= hi:
        raise PreconditionViolationError(f"voter does not rank {cj} above {ck}")

    if not pw:
        raise ValueError("possible-winner set must be nonempty")
    # a scan from each end of the ranking finds the two possible winners the
    # precheck reads soonest while the set is large
    ranking = p.ranking
    top = next(c for c in ranking if c in pw)
    bottom = next(c for c in reversed(ranking) if c in pw)
    if not precheck(p, top, bottom, cj, ck):
        return ManipulationOutcome(False, p, 0)
    pw_ordered = order_pw(p, pw)

    in_pb = q[cj].tolist()
    in_ca = q[:, ck].tolist()
    between = ranking[lo + 1 : hi]
    # the first pivot sits at ck: T is all of B and U is empty
    t_pb = inv_t = 0
    for c in between:
        if in_pb[c]:
            t_pb += 1
        else:
            inv_t += t_pb
    u_ca = inv_u = 0
    base = 1 + len(between)
    dists = [base + inv_t]
    for x in reversed(between):
        # x, the lowest member of T, becomes the highest member of U
        if in_pb[x]:
            t_pb -= 1
        else:
            inv_t -= t_pb
        if in_ca[x]:
            u_ca += 1
        else:
            inv_u += u_ca
        dists.append(base + inv_t + inv_u + t_pb * u_ca)

    d_abs = min(dists)
    head, tail = ranking[:lo], ranking[hi + 1 :]
    split = len(between)
    for d in dists:
        if d == d_abs:
            upper, lower = between[:split], between[split:]
            candidate = LinearOrder(
                head
                + tuple(c for c in upper if not in_pb[c])
                + tuple(c for c in lower if in_ca[c])
                + (ck, cj)
                + tuple(c for c in upper if in_pb[c])
                + tuple(c for c in lower if not in_ca[c])
                + tail
            )
            if is_locally_dominant(candidate, p, pw_ordered):
                return ManipulationOutcome(True, candidate, d_abs)
        split -= 1
    return ManipulationOutcome(False, p, 0)
