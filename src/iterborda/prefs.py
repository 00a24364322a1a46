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

    @property
    def top(self) -> CandidateId:
        return self.ranking[0]

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

    def num_pairs(self) -> int:
        return int(self.mat.sum())

    def is_complete(self) -> bool:
        return self.num_pairs() == self.m * (self.m - 1) // 2

    def unresolved_pairs(self) -> list[tuple[CandidateId, CandidateId]]:
        """All candidate pairs (a < b) with neither direction committed."""
        return [
            (a, b)
            for a in range(self.m)
            for b in range(a + 1, self.m)
            if not self.mat[a, b] and not self.mat[b, a]
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
    if q.mat[b, a]:
        raise InconsistencyError(f"cannot add {a} over {b}: {b} over {a} already committed")
    if q.mat[a, b]:
        return q
    # Everything at-or-above a now precedes everything at-or-below b.
    above_a = q.mat[:, a].copy()
    above_a[a] = True
    below_b = q.mat[b, :].copy()
    below_b[b] = True
    return PartialOrder(q.m, q.mat | np.outer(above_a, below_b))


def close(raw_pairs: Iterable[tuple[CandidateId, CandidateId]], m: int) -> PartialOrder:
    """Transitive closure of a set of precedence pairs over candidates 0..m-1.

    Raises :class:`InconsistencyError` if the pairs imply a cycle.  Idempotent:
    re-closing a closed relation's pairs reproduces it.
    """
    q = PartialOrder(m)
    for a, b in sorted(set(raw_pairs)):
        q = add_preference(q, a, b)
    return q


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


def interval_q(
    q: PartialOrder, side: str, c: CandidateId, include_c: bool = True
) -> set[CandidateId]:
    """Candidates committed above or below ``c`` in ``q`` (optionally plus ``c``)."""
    if side == "above":
        found = np.flatnonzero(q.mat[:, c])
    elif side == "below":
        found = np.flatnonzero(q.mat[c, :])
    else:
        raise ValueError(f"side must be 'above' or 'below', got {side!r}")
    out = {int(x) for x in found}
    if include_c:
        out.add(c)
    return out


def project(p: LinearOrder, t: Iterable[CandidateId]) -> tuple[CandidateId, ...]:
    """The members of ``t`` listed in descending ``p`` order."""
    t = set(t)
    return tuple(c for c in p.ranking if c in t)


def is_extension(p: LinearOrder, q: PartialOrder) -> bool:
    """True when every committed pair of ``q`` agrees with the ranking ``p``."""
    if p.m != q.m:
        raise ValueError("order and relation must cover the same candidates")
    ranks = np.asarray(p.rank_of)
    return not bool(np.any(q.mat & (ranks[:, None] > ranks[None, :])))
