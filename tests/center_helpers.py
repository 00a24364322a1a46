"""From-scratch references the tests compare the center against, test-side
views of a ``CenterState``'s private caches, and linear extensions as
rankings."""

from typing import Sequence

import numpy as np

from iterborda.borda import (
    necessary_winner_from_total,
    pair_diff_matrix,
    possible_winners_from_total,
    score_bounds_vectors,
)
from iterborda.center import Query
from iterborda.oracle import enumerate_extensions
from iterborda.prefs import CandidateId, LinearOrder, PartialOrder


def unresolved(state):
    """Every query the center could still usefully ask, in draw order (pair
    lexicographic, then voter ascending), read from its voter-by-pair open
    mask."""
    return [
        Query(v, a, b)
        for a, b, voters in zip(state._first.tolist(), state._second.tolist(), state._open.T)
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
