"""From-scratch references the tests compare the center against, test-side
views of a ``CenterState``'s private caches, linear extensions as rankings,
and the relations the tests draw: every closed relation on m candidates, and
random ones.  Every relation is built with ``prefs.close``."""

import itertools
from typing import Sequence

import numpy as np

from iterborda.borda import (
    borda_winner,
    necessary_winner_from_total,
    pair_diff_matrix,
    possible_winners_from_total,
    score_bounds_vectors,
)
from iterborda.center import Query
from iterborda.oracle import enumerate_extensions
from iterborda.prefs import CandidateId, LinearOrder, PartialOrder, close


def unresolved(state):
    """Every query the center could still usefully ask, in draw order (pair
    lexicographic, then voter ascending), read from its pair-by-voter open
    mask."""
    return [
        Query(v, a, b)
        for a, b, voters in zip(state._first.tolist(), state._second.tolist(), state._open)
        for v in np.flatnonzero(voters).tolist()
    ]


def _summed_diffs(qs: Sequence[PartialOrder]) -> np.ndarray:
    return sum(pair_diff_matrix(q, score_bounds_vectors(q)) for q in qs)


def possible_winners(qs: Sequence[PartialOrder]) -> set[CandidateId]:
    """Candidates that can still win: for every rival there is a completion of
    each voter's relation in which the candidate at least ties (beats, when the
    rival wins the tie-break).

    The per-pair relaxation is a superset of the exact possible-winner set.
    """
    if not qs:
        raise ValueError("need at least one voter")
    return set(np.flatnonzero(possible_winners_from_total(_summed_diffs(qs))).tolist())


def necessary_winner(qs: Sequence[PartialOrder]) -> CandidateId | None:
    """The candidate that wins under every joint completion, if already decided.

    Exact: per-voter score-difference minima are achieved independently, so the
    summed minimum equals the minimum over joint completions.
    """
    if not qs:
        raise ValueError("need at least one voter")
    return necessary_winner_from_total(_summed_diffs(qs))


def is_extension(p: LinearOrder, q: PartialOrder) -> bool:
    """True when every committed pair of ``q`` agrees with the ranking ``p``."""
    if p.m != q.m:
        raise ValueError("order and relation must cover the same candidates")
    ranks = np.asarray(p.rank_of)
    return not bool(np.any(q.mat & (ranks[:, None] > ranks[None, :])))


def linear_extensions(q: PartialOrder) -> list[LinearOrder]:
    """Every linear extension of ``q`` as a ranking, in lexicographic order."""
    return [LinearOrder(r) for r, _ in enumerate_extensions(q, LinearOrder(range(q.m)))]


def joint_winner_set(qs: Sequence[PartialOrder]) -> set[CandidateId]:
    """Winners over every joint completion (exact possible-winner set)."""
    return {
        borda_winner(list(combo))
        for combo in itertools.product(*(linear_extensions(q) for q in qs))
    }


def all_closed_relations(m: int) -> list[PartialOrder]:
    """Every transitively closed strict partial order over m candidates."""
    cells = [(a, b) for a in range(m) for b in range(m) if a != b]
    out = []
    for mask in range(1 << len(cells)):
        pairs = {cells[i] for i in range(len(cells)) if mask >> i & 1}
        if any((b, a) in pairs for a, b in pairs):
            continue
        if all((a, d) in pairs for a, b in pairs for c, d in pairs if b == c):
            out.append(close(pairs, m))
    return out


def relation_within(p: LinearOrder, rng) -> PartialOrder:
    """The closure of a random subset of the pairs the ranking ``p`` orders."""
    pairs = [(a, b) for a in range(p.m) for b in range(p.m) if p.prefers(a, b)]
    return close(rng.sample(pairs, rng.randrange(len(pairs) + 1)), p.m)


def random_relation(m: int, rng) -> PartialOrder:
    """The closure of a random subset of the pairs of a random ranking."""
    return relation_within(LinearOrder(rng.sample(range(m), m)), rng)
