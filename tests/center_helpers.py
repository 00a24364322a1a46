"""From-scratch references the tests compare the center against (a
Floyd-Warshall closure of pair sets and the list-walk query selector among
them), the one check and the one view of a ``CenterState``'s private caches,
linear extensions as rankings and their Borda scores, the possible and
necessary winners read off a summed matrix by their thresholds, the relations
the tests draw (all closed ones on m candidates, or random ones, built with
``prefs.close``) and a script loader."""

import importlib.util
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
from iterborda.center import ES, NoQueriesLeftError, Query
from iterborda.oracle import enumerate_extensions
from iterborda.prefs import CandidateId, LinearOrder, PartialOrder, close


def floyd_warshall(pairs, m):
    """Reference transitive closure of ``pairs``, or None when they hold a cycle."""
    reach = [[False] * m for _ in range(m)]
    for a, b in pairs:
        reach[a][b] = True
    for k in range(m):
        for i in range(m):
            if reach[i][k]:
                for j in range(m):
                    reach[i][j] = reach[i][j] or reach[k][j]
    if any(reach[i][i] for i in range(m)):
        return None
    return {(i, j) for i in range(m) for j in range(m) if reach[i][j]}


def reference_select(open_pairs, mid_total, pw, policy, rng):
    """The list-walk selector: rebuild the pool, draw once, walk to the query.

    ``open_pairs`` holds each voter's open (a < b) pairs, ``mid_total`` the
    summed sigma_min + sigma_max per candidate and ``pw`` the possible
    winners; pairs come in lexicographic order, each with its voters
    ascending.
    """
    m = len(mid_total)
    pairs = [(a, b) for a in range(m) for b in range(a + 1, m)]
    full = [(pair, [v for v, own in enumerate(open_pairs) if pair in own]) for pair in pairs]
    full = [(pair, vs) for pair, vs in full if vs]
    if not full:
        raise NoQueriesLeftError("all pairs resolved for all voters")
    pool = full
    if policy.selector == ES:
        star = int(np.argmax(mid_total))
        pool = [(pair, vs) for pair, vs in full if star in pair] or full
    if policy.careful:
        safe = [(pair, vs) for pair, vs in pool if pair[0] in pw and pair[1] in pw]
        if safe:
            pool = safe
    r = rng.randrange(sum(len(vs) for _, vs in pool))
    for (a, b), voters in pool:
        if r < len(voters):
            return Query(voters[r], a, b)
        r -= len(voters)
    raise AssertionError("unreachable")


def unresolved(state):
    """Every query the center could still usefully ask, in draw order (pair
    lexicographic, then voter ascending), read from its pair-by-voter open
    mask."""
    return [
        Query(v, a, b)
        for a, b, voters in zip(state._first.tolist(), state._second.tolist(), state._open)
        for v in np.flatnonzero(voters).tolist()
    ]


def reference_mid_total(qs: Sequence[PartialOrder]) -> np.ndarray:
    """Summed sigma_min + sigma_max, counted from the boolean relations."""
    m = qs[0].m
    return sum(1 + q.mat.sum(axis=1) + m - q.mat.sum(axis=0) for q in qs)


def assert_caches_match(state) -> None:
    """Recompute each cache of a ``CenterState`` from its relations alone and
    assert that it matches."""
    qs = state.qs
    # a record is a voter's pair-diff matrix with her midpoints as a last
    # row; voters start out sharing one, so a write into one voter's record
    # in place shows up here
    records = []
    for q, record in zip(qs, state._records, strict=True):
        lo, hi = bounds = score_bounds_vectors(q)
        records.append(np.vstack((pair_diff_matrix(q, bounds), lo + hi)))
        assert np.array_equal(record, records[-1])
    assert np.array_equal(state._total, sum(records))
    assert np.array_equal(state._total[-1], reference_mid_total(qs))
    total = state._total[:-1]
    # row k of the open and safe masks is the k-th pair (a < b) in lexicographic order
    first, second = np.triu_indices(qs[0].m, 1)
    assert np.array_equal(state._first, first) and np.array_equal(state._second, second)
    open_mask = np.stack([~(q.mat | q.mat.T)[first, second] for q in qs], axis=1)
    assert np.array_equal(state._open, open_mask)
    is_pw = possible_winners_from_total(total)
    assert state.pw_cache == set(np.flatnonzero(is_pw).tolist())
    safe = (is_pw[first] & is_pw[second])[:, None]
    assert np.array_equal(state._safe, np.broadcast_to(safe, open_mask.shape))
    assert state.necessary_winner() == necessary_winner_from_total(total)


def _summed_diffs(qs: Sequence[PartialOrder]) -> np.ndarray:
    return sum(pair_diff_matrix(q, score_bounds_vectors(q)) for q in qs)


def possible_winners(qs: Sequence[PartialOrder]) -> set[CandidateId]:
    """Candidates that can still win: for every rival there is a completion of
    each voter's relation in which the candidate at least ties (beats, when the
    rival wins the tie-break).

    The per-pair relaxation is a superset of the exact possible-winner set.
    """
    return set(np.flatnonzero(possible_winners_from_total(_summed_diffs(qs))).tolist())


def necessary_winner(qs: Sequence[PartialOrder]) -> CandidateId | None:
    """The candidate that wins under every joint completion, if already decided.

    Exact: per-voter score-difference minima are achieved independently, so the
    summed minimum equals the minimum over joint completions.
    """
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


def extension_scores(q: PartialOrder) -> np.ndarray:
    """The Borda scores of every linear extension of ``q``: one row per
    extension, in ``linear_extensions`` order, one column per candidate."""
    return q.m - np.array([e.rank_of for e in linear_extensions(q)])


def threshold_winners(total) -> tuple[frozenset[CandidateId], CandidateId | None]:
    """The possible winners and the necessary winner (or None) of a summed
    pair-difference maximum matrix ``total``, read off the tie-break
    thresholds.

    A rival c2 with a lower id wins its tie with c, so c must beat it
    strictly: c is a possible winner when every summed maximum
    ``total[c, c2]`` reaches that threshold, and the necessary winner when
    every summed minimum ``-total[c2, c]`` does (the lowest such c).
    """
    t = total.tolist()
    m = len(t)
    pw = frozenset(c for c in range(m) if all(t[c][c2] >= (c2 < c) for c2 in range(m)))
    sure = [c for c in range(m) if all(-t[c2][c] >= (c2 < c) for c2 in range(m))]
    return pw, (sure[0] if sure else None)


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


def load_module(path):
    """Import the script at ``path`` as a module named after its file."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
