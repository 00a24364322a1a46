"""Brute-force reference implementations used to cross-check the fast paths.

Everything here enumerates linear extensions, so it is capped at small
candidate counts and meant for tests and the ``oracle-check`` command, not
for production use inside election runs.  Both walks place candidates on int
bitmasks and carry each extension's swap distance from the voter's ranking as
a running sum, so a :class:`LinearOrder` is built only for the closest
rewrites.  :func:`enumerate_extensions` never prunes, so it stays exhaustive
and serves as the slow twin; :func:`closest_extensions` branches and bounds,
cutting a prefix once its running distance passes the best complete one.
Random instances close their sampled pairs with :func:`prefs.close`, which
also works on bitmasks, so an instance costs no numpy closure step.
"""

from __future__ import annotations

import random
from typing import Iterable

from .manipulation import (
    ManipulationOutcome,
    PreconditionViolationError,
    is_locally_dominant,
    order_pw,
)
from .prefs import (
    CandidateId,
    LinearOrder,
    PartialOrder,
    add_preference,
    close,
    swap_distance,
)

DEFAULT_CAP = 8


class CapExceededError(ValueError):
    """Candidate count too large for exhaustive enumeration."""


def _placement_steps(
    q: PartialOrder, p: LinearOrder
) -> list[tuple[CandidateId, int, int, int]]:
    """One ``(c, bit, preds, above)`` step per candidate, in id order, for
    walking the linear extensions of ``q`` on int bitmasks.

    ``preds`` holds the candidates committed above c in ``q`` and ``above``
    those ranked above c in ``p``.  Raises :class:`CapExceededError` above
    ``DEFAULT_CAP`` candidates and :class:`ValueError` when ``p`` ranks
    another number of candidates.
    """
    m = q.m
    if m > DEFAULT_CAP:
        raise CapExceededError(f"m={m} exceeds enumeration cap {DEFAULT_CAP}")
    if p.m != m:
        raise ValueError("rankings must cover the same candidates")
    committed_above = [0] * m
    for a, row in enumerate(q.mat.tolist()):
        bit = 1 << a
        for c, holds in enumerate(row):
            if holds:
                committed_above[c] |= bit
    ranked_above = [0] * m  # in p: the running prefix of p.ranking
    placed = 0
    for c in p.ranking:
        ranked_above[c] = placed
        placed |= 1 << c
    return [(c, 1 << c, committed_above[c], ranked_above[c]) for c in range(m)]


def enumerate_extensions(
    q: PartialOrder, p: LinearOrder
) -> list[tuple[tuple[CandidateId, ...], int]]:
    """Every linear extension of ``q`` with its swap distance from ``p``.

    Recursive minimal-element selection (Knuth & Szwarcfiter, 1974) on int
    bitmasks: ``preds[c]`` holds the candidates committed above c and
    ``remaining`` the candidates not yet placed, so c may come next when
    ``preds[c] & remaining`` is empty.  Candidates are tried in ascending
    id order, so the rankings come out in lexicographic order.  Placing c
    above the ``rest`` still to be placed inverts, relative to ``p``, exactly
    the pairs with the members of ``rest`` that ``p`` ranks above c, so each
    extension carries its swap distance as a running sum.  Once a single
    candidate remains it can only go last, inverting nothing more, so a
    ranking is appended at the placement that leaves one candidate, without
    a further call.

    Returns ``(ranking, distance)`` pairs, distinct by construction; an empty
    relation over m candidates yields all m! rankings.  Raises
    :class:`CapExceededError` above ``DEFAULT_CAP`` candidates.
    """
    steps = _placement_steps(q, p)
    m = q.m
    if m < 2:
        return [(tuple(range(m)), 0)]
    out: list[tuple[tuple[CandidateId, ...], int]] = []

    def grow(prefix, remaining, d):
        for c, bit, preds, above in steps:
            if remaining & bit and not preds & remaining:
                rest = remaining ^ bit
                d_rest = d + (rest & above).bit_count()
                if rest & (rest - 1):
                    grow(prefix + (c,), rest, d_rest)
                else:  # one candidate left: it goes last, at no further cost
                    out.append((prefix + (c, rest.bit_length() - 1), d_rest))

    grow((), (1 << m) - 1, 0)
    return out


def closest_extensions(
    p: LinearOrder,
    q: PartialOrder,
    ck: CandidateId,
    cj: CandidateId,
) -> list[LinearOrder]:
    """All rankings consistent with ``q`` plus the forced pair "ck over cj"
    that sit at minimal swap distance from ``p``, in lexicographic order.

    Branch and bound (Land & Doig, 1960) over the same placements as
    :func:`enumerate_extensions`.  Candidates are tried in ``p``'s order, so
    the first complete ranking lands near ``p`` and sets a tight bound early.
    A placement whose running distance already exceeds the best complete
    distance is cut: the running distance of a prefix never falls as the
    prefix grows, so nothing below the cut can reach the best.  A strictly
    closer ranking restarts the list, a tie joins it, and the survivors are
    sorted into lexicographic order at the end.  A :class:`LinearOrder` is
    built only for them.
    """
    forced = add_preference(q, ck, cj)
    steps = _placement_steps(forced, p)
    steps = [steps[c] for c in p.ranking]
    best = forced.m * forced.m  # above any swap distance
    closest: list[tuple[CandidateId, ...]] = []

    def grow(prefix, remaining, d):
        nonlocal best
        for c, bit, preds, above in steps:
            if remaining & bit and not preds & remaining:
                rest = remaining ^ bit
                d_rest = d + (rest & above).bit_count()
                if d_rest > best:
                    continue
                if rest & (rest - 1):
                    grow(prefix + (c,), rest, d_rest)
                else:  # one candidate left: it goes last, at no further cost
                    ranking = prefix + (c, rest.bit_length() - 1)
                    if d_rest < best:
                        best = d_rest
                        closest.clear()
                    closest.append(ranking)

    grow((), (1 << forced.m) - 1, 0)
    return [LinearOrder(r) for r in sorted(closest)]


def oracle_manipulation(
    p: LinearOrder,
    q: PartialOrder,
    pw: Iterable[CandidateId],
    cj: CandidateId,
    ck: CandidateId,
) -> ManipulationOutcome:
    """Reference manipulation search by exhaustive enumeration.

    Scans every minimal-distance consistent rewrite that answers ck over cj
    and returns one that is locally dominant, if any; otherwise reports no
    change.  Same contract as
    :func:`iterborda.manipulation.find_manipulation`.
    """
    if q.holds(cj, ck) or q.holds(ck, cj):
        raise PreconditionViolationError(
            f"queried pair ({cj}, {ck}) is already committed"
        )
    if not p.prefers(cj, ck):
        raise PreconditionViolationError(f"voter does not rank {cj} above {ck}")
    pw_ordered = order_pw(p, pw)
    for candidate in closest_extensions(p, q, ck, cj):
        if is_locally_dominant(candidate, p, pw_ordered):
            return ManipulationOutcome(True, candidate, swap_distance(p, candidate))
    return ManipulationOutcome(False, p, 0)


def random_instance(
    m: int, rng: random.Random
) -> tuple[LinearOrder, PartialOrder, set[CandidateId], CandidateId, CandidateId]:
    """A random manipulation scenario (p, q, pw, cj, ck) with valid givens.

    The partial order is built from pairs sampled within ``p`` so the ranking
    always extends it, the query pair is uncommitted and oriented by ``p``,
    and the possible-winner set is a random nonempty candidate subset.
    """
    p = LinearOrder(rng.sample(range(m), m))
    rank = p.rank_of
    all_pairs = [(a, b) for a in range(m) for b in range(m) if rank[a] < rank[b]]
    while True:
        k = rng.randrange(0, m * (m - 1) // 2)
        q = close(rng.sample(all_pairs, k), m)
        open_pairs = q.unresolved_pairs()
        if open_pairs:
            break
    a, b = rng.choice(open_pairs)
    cj, ck = (a, b) if p.prefers(a, b) else (b, a)
    pw = set(rng.sample(range(m), rng.randint(1, m)))
    return p, q, pw, cj, ck
