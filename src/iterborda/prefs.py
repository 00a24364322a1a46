"""Preference primitives: strict total rankings and transitively closed partial orders.

Candidates are dense integer ids ``0..m-1``.  The ascending id order doubles as
the fixed lexicographic tie-break order used everywhere else in the package.
"""

from __future__ import annotations

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


class PartialOrder:
    """A transitively closed, irreflexive, antisymmetric precedence relation.

    ``mat[a, b]`` is True when "a over b" has been committed, directly or by
    transitive inference.  Construct via :func:`close` / :func:`add_preference`;
    treat instances as immutable.
    """

    def __init__(self, m: int, mat: np.ndarray | None = None):
        self.m = m
        if mat is None:
            mat = np.zeros((m, m), dtype=bool)
        self.mat = mat

    def holds(self, a: CandidateId, b: CandidateId) -> bool:
        """True when the relation commits a over b."""
        return bool(self.mat[a, b])

    def pairs(self) -> set[tuple[CandidateId, CandidateId]]:
        return {(int(a), int(b)) for a, b in np.argwhere(self.mat)}

    def unresolved_pairs(self) -> list[tuple[CandidateId, CandidateId]]:
        """All candidate pairs (a < b) with neither direction committed."""
        rows = self.mat.tolist()
        return [
            (a, b)
            for a in range(self.m)
            for b in range(a + 1, self.m)
            if not rows[a][b] and not rows[b][a]
        ]

    def __eq__(self, other):
        return (
            isinstance(other, PartialOrder)
            and self.m == other.m
            and bool(np.array_equal(self.mat, other.mat))
        )

    def __repr__(self):
        return f"PartialOrder(m={self.m}, pairs={sorted(self.pairs())})"


def add_preference(q: PartialOrder, a: CandidateId, b: CandidateId) -> PartialOrder:
    """Return ``q`` extended with "a over b" and re-closed under transitivity.

    Raises :class:`InconsistencyError` if the opposite direction is already
    committed (directly or by inference).  Adding an already-committed pair is
    a no-op.
    """
    if a == b:
        raise InconsistencyError(f"candidate {a} cannot precede itself")
    mat = q.mat
    if mat.item(b, a):
        raise InconsistencyError(f"cannot add {a} over {b}: {b} over {a} already committed")
    if mat.item(a, b):
        return q
    # Everything at-or-above a now precedes everything at-or-below b.
    above_a = mat[:, a].copy()
    above_a[a] = True
    below_b = mat[b, :].copy()
    below_b[b] = True
    return PartialOrder(q.m, mat | (above_a[:, None] & below_b))


def close(raw_pairs: Iterable[tuple[CandidateId, CandidateId]], m: int) -> PartialOrder:
    """Transitive closure of a set of precedence pairs over candidates 0..m-1.

    Warshall's algorithm (1962) on Python-int row masks, ``below[a]`` holding
    the candidates committed below a; the bool matrix is built once, at the
    end.  The closure of a pair set is unique, so the result does not depend
    on the order of the pairs.  Raises :class:`ValueError` for a pair naming
    a candidate outside 0..m-1, and :class:`InconsistencyError` if the pairs
    imply a cycle (a self pair included).  Idempotent: re-closing a closed
    relation's pairs reproduces it.
    """
    below = [0] * m
    for a, b in raw_pairs:
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
    return PartialOrder(m, bits.reshape(m, m).view(bool))


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

