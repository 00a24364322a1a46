"""Preference primitives: strict total rankings and transitively closed relations.

Candidates are dense integer ids ``0..m-1``.  The ascending id order doubles as
the fixed lexicographic tie-break order used everywhere else in the package.

A relation is an m x m bool ``np.ndarray`` ``q``, transitively closed,
irreflexive and antisymmetric, with ``q[a, b]`` True when "a over b" has been
committed, directly or by transitive inference.  Build one with :func:`close`
and extend it with :func:`add_preference`; treat it as immutable, since
callers share relations rather than copy them.
"""

from __future__ import annotations

from operator import index
from typing import Iterable

import numpy as np

CandidateId = int


class InconsistencyError(ValueError):
    """A preference commitment contradicts what is already committed."""


class LinearOrder:
    """A strict total ranking of candidates 0..m-1, most preferred first.

    ``ranking[0]`` is the top candidate; ``rank_of[c]`` is the position of
    candidate ``c`` (0 = most preferred).  Instances are immutable by
    convention and hashable.
    """

    def __init__(self, ranking: Iterable[CandidateId]):
        ranking = tuple(ranking)
        m = len(ranking)
        if sorted(ranking) != list(range(m)):
            raise ValueError(f"ranking must be a permutation of 0..{m - 1}, got {ranking!r}")
        self.m = m
        self.ranking = ranking
        rank = [0] * m
        for pos, c in enumerate(ranking):
            rank[c] = pos
        self.rank_of = tuple(rank)

    def prefers(self, a: CandidateId, b: CandidateId) -> bool:
        return self.rank_of[a] < self.rank_of[b]

    def __eq__(self, other):
        return isinstance(other, LinearOrder) and self.ranking == other.ranking

    def __hash__(self):
        return hash(self.ranking)

    def __repr__(self):
        return f"LinearOrder({list(self.ranking)})"


def add_preference(q: np.ndarray, a: CandidateId, b: CandidateId) -> np.ndarray:
    """Return ``q`` extended with "a over b" and re-closed under transitivity.

    Raises :class:`InconsistencyError` if the opposite direction is already
    committed (directly or by inference).  Adding an already-committed pair is
    a no-op.
    """
    if a == b:
        raise InconsistencyError(f"candidate {a} cannot precede itself")
    if q.item(b, a):
        raise InconsistencyError(f"cannot add {a} over {b}: {b} over {a} already committed")
    if q.item(a, b):
        return q
    # Everything at-or-above a now precedes everything at-or-below b.
    above_a = q[:, a].copy()
    above_a[a] = True
    below_b = q[b, :].copy()
    below_b[b] = True
    return q | (above_a[:, None] & below_b)


def close(raw_pairs: Iterable[tuple[CandidateId, CandidateId]], m: int) -> np.ndarray:
    """Transitive closure of a set of precedence pairs over candidates 0..m-1.

    Warshall's algorithm (1962) on Python-int row masks, ``below[a]`` holding
    the candidates committed below a; the bool matrix is built once, at the
    end.  The closure of a pair set is unique, so the result does not depend
    on the order of the pairs.  Raises :class:`TypeError` for an id that is
    not an integer, :class:`ValueError` for a pair naming a candidate outside
    0..m-1, and :class:`InconsistencyError` if the pairs imply a cycle (a self
    pair included).  Idempotent: re-closing a closed relation's pairs
    reproduces it.
    """
    below = [0] * m
    for a, b in raw_pairs:
        a, b = index(a), index(b)  # numpy ints pass, floats raise TypeError
        if not (0 <= a < m and 0 <= b < m):
            raise ValueError(f"pair {(a, b)!r} names a candidate outside 0..{m - 1}")
        below[a] |= 1 << b
    for k in range(m):
        row = below[k]
        if row:
            bit = 1 << k
            for i in range(m):
                if below[i] & bit:
                    below[i] |= row
    for a in range(m):
        if below[a] >> a & 1:
            raise InconsistencyError(f"the pairs imply a cycle through candidate {a}")
    # row a's mask fills bits a*m .. a*m+m-1 of one int; little-endian bytes
    # unpack to the row-major matrix at any m, with no fixed-width overflow
    whole = 0
    for row in reversed(below):
        whole = whole << m | row
    bits = np.unpackbits(
        np.frombuffer(whole.to_bytes((m * m + 7) // 8, "little"), np.uint8),
        count=m * m,
        bitorder="little",
    )
    return bits.reshape(m, m).view(bool)


def unresolved_pairs(q: np.ndarray) -> list[tuple[CandidateId, CandidateId]]:
    """All candidate pairs (a < b) of ``q`` with neither direction committed."""
    rows = q.tolist()
    m = len(rows)
    return [
        (a, b)
        for a in range(m)
        for b in range(a + 1, m)
        if not rows[a][b] and not rows[b][a]
    ]


def swap_distance(p: LinearOrder, p2: LinearOrder) -> int:
    """Number of candidate pairs the two rankings order oppositely."""
    if p.m != p2.m:
        raise ValueError("rankings must cover the same candidates")
    d = 0
    ranking, rank2 = p.ranking, p2.rank_of
    for i in range(p.m):
        ri = rank2[ranking[i]]
        for j in range(i + 1, p.m):
            if rank2[ranking[j]] < ri:
                d += 1
    return d

