"""Brute-force reference implementations used to cross-check the fast paths.

Everything here enumerates linear extensions, so it is capped at small
candidate counts and meant for the tests and the benchmark's ``oracle-m6``
workload, not for use in election runs.  Both walks place candidates on int
bitmasks and carry each extension's swap distance from the voter's ranking as
a running sum, so a :class:`LinearOrder` is built only for the closest
rewrites.  :func:`enumerate_extensions` never prunes, so it stays exhaustive
and serves as the slow twin; :func:`closest_extensions` branches and bounds,
cutting a prefix once its running distance passes the best complete one, and
folds its forced pair into the masks as it reads them.  Random instances
close their sampled pairs with :func:`prefs.close` and draw the query pair
from :func:`prefs.unresolved_pairs`.
"""

from __future__ import annotations

import random
from typing import Iterable

import numpy as np

from .manipulation import (
    ManipulationOutcome,
    PreconditionViolationError,
    is_locally_dominant,
    order_pw,
)
from .prefs import (
    CandidateId,
    InconsistencyError,
    LinearOrder,
    PartialOrder,
    close,
    swap_distance,
    unresolved_pairs,
)
# add_preference is unused here; it stays bound because perfbench/tracer.py patches it by name
from .prefs import add_preference  # noqa: F401

DEFAULT_CAP = 8


class CapExceededError(ValueError):
    """Candidate count too large for exhaustive enumeration."""


def _placement_steps(
    q: PartialOrder,
    p: LinearOrder,
    forced: tuple[CandidateId, CandidateId] | None = None,
) -> list[tuple[CandidateId, int, int, int]]:
    """One ``(c, bit, preds, above)`` step per candidate, in id order, for
    walking the linear extensions of ``q`` on int bitmasks.

    ``preds`` holds the candidates committed above c in ``q`` and ``above``
    those ranked above c in ``p``.  At most ``DEFAULT_CAP`` = 8 candidates,
    column c of ``q.mat`` packs into one byte, bit a set when a is committed
    over c.  A ``forced`` pair ``(ck, cj)`` is folded in as the one bit "ck
    over cj" in cj's mask; placement order is itself transitive, so the walks
    yield the extensions of ``add_preference(q, ck, cj)``.  Raises
    :class:`CapExceededError` above ``DEFAULT_CAP`` candidates,
    :class:`ValueError` when ``p`` ranks another number of candidates, and
    :class:`InconsistencyError`, as ``add_preference`` does, when the forced
    pair contradicts ``q``.
    """
    m = q.m
    if m > DEFAULT_CAP:
        raise CapExceededError(f"m={m} exceeds enumeration cap {DEFAULT_CAP}")
    if p.m != m:
        raise ValueError("rankings must cover the same candidates")
    committed_above = np.packbits(q.mat, axis=0, bitorder="little")[0].tolist() if m else []
    if forced is not None:
        ck, cj = forced
        if ck == cj:
            raise InconsistencyError(f"candidate {ck} cannot precede itself")
        if committed_above[ck] >> cj & 1:
            raise InconsistencyError(
                f"cannot add {ck} over {cj}: {cj} over {ck} already committed"
            )
        committed_above[cj] |= 1 << ck
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
    built only for them.  The forced pair is folded into the walk's set-up
    rather than added to ``q``; :class:`InconsistencyError` is raised when
    ``q`` commits cj over ck.
    """
    steps = _placement_steps(q, p, (ck, cj))
    steps = [steps[c] for c in p.ranking]
    m = q.m
    best = m * m  # above any swap distance
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

    grow((), (1 << m) - 1, 0)
    return [LinearOrder(r) for r in sorted(closest)]


def oracle_manipulation(
    p: LinearOrder,
    q: PartialOrder,
    pw: Iterable[CandidateId],
    cj: CandidateId,
    ck: CandidateId,
) -> ManipulationOutcome:
    """Reference manipulation search by exhaustive enumeration.

    Of the consistent rewrites at minimal swap distance that answer ck over
    cj and are locally dominant, adopts the one that ranks cj lowest; if
    there are none, reports no change.  Same contract and tie rule as
    :func:`iterborda.manipulation.find_manipulation`.
    """
    if q.holds(cj, ck) or q.holds(ck, cj):
        raise PreconditionViolationError(
            f"queried pair ({cj}, {ck}) is already committed"
        )
    if not p.prefers(cj, ck):
        raise PreconditionViolationError(f"voter does not rank {cj} above {ck}")
    pw_ordered = order_pw(p, pw)
    dominant = [
        r for r in closest_extensions(p, q, ck, cj) if is_locally_dominant(r, p, pw_ordered)
    ]
    if not dominant:
        return ManipulationOutcome(False, p, 0)
    adopted = max(dominant, key=lambda r: r.rank_of[cj])
    return ManipulationOutcome(True, adopted, swap_distance(p, adopted))


def random_instance(
    m: int, rng: random.Random
) -> tuple[LinearOrder, PartialOrder, set[CandidateId], CandidateId, CandidateId]:
    """A random manipulation scenario (p, q, pw, cj, ck) with valid givens.

    The partial order is the :func:`prefs.close` of pairs sampled within
    ``p``, so the ranking always extends it; the query pair is one of its
    :func:`prefs.unresolved_pairs`, oriented by ``p``; and the possible-winner
    set is a random nonempty candidate subset.
    """
    p = LinearOrder(rng.sample(range(m), m))
    rank = p.rank_of
    all_pairs = [(a, b) for a, ra in enumerate(rank) for b, rb in enumerate(rank) if ra < rb]
    while True:
        k = rng.randrange(0, m * (m - 1) // 2)
        q = close(rng.sample(all_pairs, k), m)
        open_pairs = unresolved_pairs(q)
        if open_pairs:
            break
    a, b = rng.choice(open_pairs)
    cj, ck = (a, b) if p.prefers(a, b) else (b, a)
    pw = set(rng.sample(range(m), rng.randint(1, m)))
    return p, q, pw, cj, ck
