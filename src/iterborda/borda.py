"""Borda scoring under complete and partial information.

A candidate ranked at position r (0 = top) by a voter scores m - r, i.e.
scores run from m down to 1.  Under a partial order the score of a candidate
is only bounded; the pairwise score-difference extremes computed here are
exact over the linear extensions of a single voter's relation, which makes
the necessary-winner test exact while the possible-winner test is a sound
polynomial superset of the (NP-hard) exact set.  That set is never empty,
so a necessary winner exists exactly when the superset has one member; the
center stops there, and the tests keep the necessary-winner test as reference.

The pair extremes follow from the score bounds: unless c2 is committed over
c, the maximum of score(c) - score(c2) is sigma_max(c) - sigma_min(c2), so
one set of bounds serves both the score midpoints and the pair-difference
matrix.  Counts and sums are float64, which holds every integer here exactly.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from .prefs import CandidateId, LinearOrder


def borda_winner(profile: Sequence[LinearOrder]) -> CandidateId:
    """Borda winner of a complete profile; ties go to the lowest candidate id."""
    if not profile:
        raise ValueError("profile must be nonempty")
    m = profile[0].m
    scores = np.zeros(m, dtype=np.int64)
    for p in profile:
        scores += m - np.asarray(p.rank_of)
    return int(np.argmax(scores))


@functools.cache
def _ones(m: int) -> np.ndarray:
    """Read-only float64 vector of m ones."""
    ones = np.ones(m)
    ones.flags.writeable = False
    return ones


def score_bounds_vectors(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tight Borda score bounds (sigma_min, sigma_max) under ``q``, one entry
    per candidate: 1 plus the candidates committed below it, and m minus the
    candidates committed above it.

    The counts are float64 products of the 0/1 relation with a ones vector,
    which are cheaper than boolean reductions and exact at these sizes.
    """
    m = len(q)
    rel = q.astype(np.float64)
    ones = _ones(m)
    return 1.0 + rel @ ones, m - ones @ rel


def pair_diff_matrix(q: np.ndarray, bounds: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Matrix D with D[c, c2] the exact maximum of score(c) - score(c2) over
    all linear extensions of ``q``; diagonal 0.

    ``bounds`` is ``score_bounds_vectors(q)``, which the caller already
    holds.  Where c2 is not committed over c, some linear extension ranks c as
    high and c2 as low as the relation allows, so the entry is
    sigma_max(c) - sigma_min(c2).  Where c2 is committed over c, every
    candidate wedged between them counts against c and the entry is
    ``-(1 + wedged)``; the wedged counts come from one matrix product of the
    0/1 relation.  Everything is float64 (BLAS), exact for integer counts
    this small.
    """
    lo, hi = bounds
    rel = q.astype(np.float64)
    d = np.subtract.outer(hi, lo)
    # (rel @ rel)[c2, c] = #x with c2 over x over c
    np.copyto(d, -1.0 - (rel @ rel).T, where=q.T)
    d.flat[:: len(q) + 1] = 0.0
    return d


@functools.cache
def _tie_break_threshold(m: int) -> np.ndarray:
    """Read-only float64 [c, c2] matrix: 1 when c2 beats c on the lexicographic
    tie-break (c must then win the pair strictly), else 0; diagonal 0."""
    idx = np.arange(m)
    thr = (idx[None, :] < idx[:, None]).astype(np.float64)
    thr.flags.writeable = False
    return thr


def possible_winners_from_total(total: np.ndarray) -> np.ndarray:
    """Possible-winner mask given the summed max-pair-diff matrix: entry c
    is True when c can at least tie (beat, against a rival winning the
    tie-break) every rival."""
    return (total >= _tie_break_threshold(total.shape[0])).all(axis=1)


def necessary_winner_from_total(total: np.ndarray) -> CandidateId | None:
    """Necessary winner given the summed max-pair-diff matrix, if one exists."""
    # the summed minimum of score(c) - score(c2) is -total[c2, c]
    ok = -total.T >= _tie_break_threshold(total.shape[0])
    winners = np.flatnonzero(ok.all(axis=1))
    if winners.size == 0:
        return None
    return int(winners[0])

