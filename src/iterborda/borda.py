"""Borda scoring under complete and partial information.

A candidate ranked at position r (0 = top) by a voter scores m - r, i.e.
scores run from m down to 1.  Under a partial order the score of a candidate
is only bounded; the pairwise score-difference extremes computed here are
exact over the linear extensions of a single voter's relation, which makes
the necessary-winner test exact while the possible-winner test is a sound
polynomial superset of the (NP-hard) exact set.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from .prefs import CandidateId, LinearOrder, PartialOrder


def borda_scores(profile: Sequence[LinearOrder]) -> np.ndarray:
    """Total Borda score per candidate over a complete profile."""
    m = profile[0].m
    scores = np.zeros(m, dtype=np.int64)
    for p in profile:
        scores += m - np.asarray(p.rank_of)
    return scores


def borda_winner(profile: Sequence[LinearOrder]) -> CandidateId:
    """Borda winner of a complete profile; ties go to the lowest candidate id."""
    if not profile:
        raise ValueError("profile must be nonempty")
    return int(np.argmax(borda_scores(profile)))


def score_bounds_vectors(q: PartialOrder) -> tuple[np.ndarray, np.ndarray]:
    """Tight Borda score bounds (sigma_min, sigma_max) under ``q``, one entry
    per candidate: 1 plus the candidates committed below it, and m minus the
    candidates committed above it."""
    below = q.mat.sum(axis=1)
    above = q.mat.sum(axis=0)
    return 1 + below, q.m - above


def max_pair_diff(q: PartialOrder, c: CandidateId, c2: CandidateId) -> int:
    """Exact maximum of score(c) - score(c2) over all linear extensions of ``q``.

    When c2 is committed above c, every candidate wedged between them counts
    against c and the best case is -(1 + #wedged).  Otherwise c can be placed
    directly above c2 and every candidate free to sit between them adds one.
    """
    if c == c2:
        raise ValueError("candidates must differ")
    mat = q.mat
    if mat[c2, c]:
        wedged = int(np.count_nonzero(mat[c2, :] & mat[:, c]))
        return -(1 + wedged)
    free = ~mat[:, c] & ~mat[c2, :]
    free[c] = False
    free[c2] = False
    return 1 + int(np.count_nonzero(free))


def min_pair_diff(q: PartialOrder, c: CandidateId, c2: CandidateId) -> int:
    """Exact minimum of score(c) - score(c2) over all linear extensions of ``q``."""
    return -max_pair_diff(q, c2, c)


def pair_diff_matrix(q: PartialOrder) -> np.ndarray:
    """Matrix D with D[c, c2] = :func:`max_pair_diff`(q, c, c2); diagonal 0.

    Vectorized over all ordered pairs; used by the voting center, which keeps
    one such matrix per voter and sums them.  Where c2-over-c is open,
    nothing is committed between c2 and c, and the entry
    ``m - 1 - |above(c)| - |below(c2)|`` counts c2 plus every candidate free
    to sit between them.  Where c2 is committed over c the entry is
    ``-(1 + wedged)``, and the wedged counts come from one matrix product of
    the 0/1 relation (in floating point, which runs through BLAS and is
    exact for integer counts this small).
    """
    mat = q.mat
    m = q.m
    rel = mat.astype(np.float64)
    # wedged[c2, c] = #x with c2 over x over c
    wedged = (rel @ rel).astype(np.int64)
    d = (m - 1) - mat.sum(axis=0)[:, None] - mat.sum(axis=1)
    d = np.where(mat.T, -1 - wedged.T, d)
    d.flat[:: m + 1] = 0
    return d


@functools.cache
def _tie_break_threshold(m: int) -> np.ndarray:
    """Read-only [c, c2] matrix: 1 when c2 beats c on the lexicographic
    tie-break (c must then win the pair strictly), else 0; diagonal 0."""
    idx = np.arange(m)
    thr = (idx[None, :] < idx[:, None]).astype(np.int64)
    thr.flags.writeable = False
    return thr


def possible_winners_from_total(total: np.ndarray) -> frozenset[CandidateId]:
    """Possible-winner set given the summed max-pair-diff matrix."""
    ok = total >= _tie_break_threshold(total.shape[0])
    return frozenset(np.nonzero(ok.all(axis=1))[0].tolist())


def necessary_winner_from_total(total: np.ndarray) -> CandidateId | None:
    """Necessary winner given the summed max-pair-diff matrix, if one exists."""
    # the summed minimum of score(c) - score(c2) is -total[c2, c]
    ok = -total.T >= _tie_break_threshold(total.shape[0])
    winners = np.flatnonzero(ok.all(axis=1))
    if winners.size == 0:
        return None
    return int(winners[0])


def _summed_diffs(qs: Sequence[PartialOrder]) -> np.ndarray:
    total = pair_diff_matrix(qs[0]).copy()
    for q in qs[1:]:
        total += pair_diff_matrix(q)
    return total


def possible_winners(qs: Sequence[PartialOrder]) -> set[CandidateId]:
    """Candidates that can still win: for every rival there is a completion of
    each voter's relation in which the candidate at least ties (beats, when the
    rival wins the tie-break).

    The per-pair relaxation is a superset of the exact possible-winner set.
    """
    if not qs:
        raise ValueError("need at least one voter")
    return set(possible_winners_from_total(_summed_diffs(qs)))


def necessary_winner(qs: Sequence[PartialOrder]) -> CandidateId | None:
    """The candidate that wins under every joint completion, if already decided.

    Exact: per-voter score-difference minima are achieved independently, so the
    summed minimum equals the minimum over joint completions.
    """
    if not qs:
        raise ValueError("need at least one voter")
    return necessary_winner_from_total(_summed_diffs(qs))
