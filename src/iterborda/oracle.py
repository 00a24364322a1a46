"""Brute-force reference implementations used to cross-check the fast paths.

Everything here enumerates linear extensions outright, so it is capped at
small candidate counts and meant for tests and the ``oracle-check`` command,
not for production use inside election runs.
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
    LinearOrder,
    PartialOrder,
    add_preference,
    close,
    swap_distance,
)

DEFAULT_CAP = 8


class CapExceededError(ValueError):
    """Candidate count too large for exhaustive enumeration."""


def enumerate_extensions(q: PartialOrder) -> list[LinearOrder]:
    """All linear extensions of ``q``, by recursive minimal-element selection.

    Distinct by construction; an empty relation over m candidates yields all
    m! rankings.  Raises :class:`CapExceededError` above ``DEFAULT_CAP``
    candidates.
    """
    if q.m > DEFAULT_CAP:
        raise CapExceededError(f"m={q.m} exceeds enumeration cap {DEFAULT_CAP}")
    preds = [frozenset(int(x) for x in np.flatnonzero(q.mat[:, c])) for c in range(q.m)]
    out: list[LinearOrder] = []
    remaining = set(range(q.m))
    prefix: list[int] = []

    def grow():
        if not remaining:
            out.append(LinearOrder(prefix))
            return
        for c in sorted(remaining):
            if preds[c].isdisjoint(remaining):
                remaining.remove(c)
                prefix.append(c)
                grow()
                prefix.pop()
                remaining.add(c)

    grow()
    return out


def closest_extensions(
    p: LinearOrder,
    q: PartialOrder,
    ck: CandidateId,
    cj: CandidateId,
) -> list[LinearOrder]:
    """All rankings consistent with ``q`` plus the forced pair "ck over cj"
    that sit at minimal swap distance from ``p``.

    Full enumeration followed by a distance filter; no pruning.
    """
    forced = add_preference(q, ck, cj)
    extensions = enumerate_extensions(forced)
    distances = [swap_distance(p, e) for e in extensions]
    best = min(distances)
    return [e for e, d in zip(extensions, distances) if d == best]


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
    all_pairs = [(a, b) for a in range(m) for b in range(m) if p.prefers(a, b)]
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
