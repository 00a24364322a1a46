"""The voting center: query selection, response bookkeeping, election loop.

The center knows nothing about the voters beyond their answers.  It keeps one
transitively closed relation per voter, recomputes the possible-winner set
after every answer, and stops as soon as a necessary winner exists.

A round costs what the answer touches.  The pairs the closure newly commits
for the answering voter update a running count of open voters per candidate
pair and the summed score-bound midpoints the ES heuristic ranks by; only
that voter's pairwise score-difference matrix is recomputed and swapped into
the summed matrix.  Query selection maps one draw to a query by a prefix sum
over the per-pair counts, and the exact necessary-winner test runs only once
a single possible winner is left, which is when it can first succeed.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .borda import (
    necessary_winner_from_total,
    pair_diff_matrix,
    possible_winners_from_total,
    score_bounds_vectors,
)
from .manipulation import order_pw, segment_total
from .prefs import (
    CandidateId,
    LinearOrder,
    PartialOrder,
    add_preference,
    project,
)
from .voter import BEHAVIORS, VoterState

ES = "es"
RANDOM = "random"
SELECTORS = (ES, RANDOM)


class NoQueriesLeftError(RuntimeError):
    """Every pair of every voter is already resolved."""


class TraceInvariantError(AssertionError):
    """A voter's behaviour broke an invariant the theory guarantees."""


@dataclass(frozen=True)
class Policy:
    """Query-selection policy: base selector plus the careful restriction."""

    selector: str = RANDOM
    careful: bool = False

    def __post_init__(self):
        if self.selector not in SELECTORS:
            raise ValueError(f"selector must be one of {SELECTORS}, got {self.selector!r}")

    @property
    def name(self) -> str:
        return ("careful-" if self.careful else "") + self.selector


@dataclass(frozen=True)
class Query:
    voter: int
    cj: CandidateId
    ck: CandidateId


@dataclass(frozen=True)
class TraceStep:
    """One round of the loop: what was asked, answered, and known at the time."""

    query: Query
    response: tuple[CandidateId, CandidateId]
    manipulated: bool
    pw: frozenset[CandidateId]


@dataclass
class ElectionResult:
    """Outcome and full trace of a single election run."""

    winner: CandidateId
    queries_issued: int
    max_queries: int
    manipulated_count: int
    trace: list[TraceStep] = field(repr=False)


def is_safe(query: Query, pw: frozenset[CandidateId] | set[CandidateId]) -> bool:
    """A query is safe when both its candidates are possible winners."""
    return query.cj in pw and query.ck in pw


@functools.cache
def _pair_layout(m: int) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """Candidate pairs (a < b) in lexicographic order, once per m.

    Returns the arrays of first and second candidates, indexed by pair, and
    for each candidate the ascending indices of the m - 1 pairs touching it
    (its ES pool).  Every array is read-only.
    """
    first, second = np.triu_indices(m, 1)
    es_pools = tuple(np.flatnonzero((first == c) | (second == c)) for c in range(m))
    for arr in (first, second, *es_pools):
        arr.flags.writeable = False
    return first, second, es_pools


class CenterState:
    """Per-voter partial knowledge plus the caches derived from it.

    Every cache is updated from what an answer touches: the pairs its closure
    newly commits for one voter, and that voter's pair-difference matrix.
    """

    def __init__(self, n: int, m: int):
        if n < 1 or m < 2:
            raise ValueError("need at least one voter and two candidates")
        self.n = n
        self.m = m
        self.qs: list[PartialOrder] = [PartialOrder(m) for _ in range(n)]
        self.history: list[TraceStep] = []
        self.round = 0
        self._first, self._second, self._es_pools = _pair_layout(m)
        # flat positions of each pair's two directions in an m x m matrix
        self._upper = self._first * m + self._second
        self._lower = self._second * m + self._first
        pairs = len(self._first)
        # _open[v, k]: pair k is still open for voter v; _open_count sums over v
        self._open = np.ones((n, pairs), dtype=bool)
        self._open_count = np.full(pairs, n, dtype=np.int64)
        self._unresolved_total = n * pairs
        self._diffs = [pair_diff_matrix(q) for q in self.qs]
        self._total = np.sum(self._diffs, axis=0, dtype=np.int64)
        # summed sigma_min + sigma_max per candidate (the ES heuristic)
        self._mid_total = np.sum(
            [np.add(*score_bounds_vectors(q)) for q in self.qs], axis=0, dtype=np.int64
        )
        self._set_pw(possible_winners_from_total(self._total))

    def _set_pw(self, pw: frozenset[CandidateId]) -> None:
        """Publish a new possible-winner set and rebuild the safe-pair mask."""
        self.pw_cache = pw
        in_pw = np.zeros(self.m, dtype=bool)
        in_pw[list(pw)] = True
        self._safe = (in_pw[self._first] & in_pw[self._second]).astype(np.int64)

    def unresolved(self) -> list[Query]:
        """Every query the center could still usefully ask, in draw order."""
        return [
            Query(v, a, b)
            for a, b, voters in zip(self._first.tolist(), self._second.tolist(), self._open.T)
            for v in np.nonzero(voters)[0].tolist()
        ]

    def unresolved_count(self) -> int:
        return self._unresolved_total

    def necessary_winner(self) -> CandidateId | None:
        """The necessary winner, or None while it is undecided.

        With ``thr[x, y]`` = 1 when y wins ties against x and 0 otherwise, c
        is the necessary winner when ``-_total[c2, c] >= thr[c, c2]`` for
        every rival c2, and c2 is a possible winner only if
        ``_total[c2, c] >= thr[c2, c]``.  The two thresholds sum to 1, so a
        necessary winner leaves no rival possible.  While two or more
        candidates are possible winners the exact test is therefore skipped.
        """
        if len(self.pw_cache) > 1:
            return None
        return necessary_winner_from_total(self._total)

    def select_query(self, policy: Policy, rng: random.Random) -> Query:
        """Draw the next query under the policy, uniformly within its pool.

        ES restricts the pool to queries touching the candidate with the
        highest summed score-bound midpoint (lowest id on ties), falling back
        to the full pool if that candidate is fully resolved.  A careful
        center then keeps only the safe queries of that pool; when the pool
        holds none it draws from the pool unchanged, unsafe queries included.
        So careful-ES falls back to unsafe ES-pool queries rather than
        reaching for safe queries outside the ES pool.

        The pool's queries are ordered by pair (lexicographic), then voter
        (ascending); one ``randrange`` over the pool size picks the query at
        that position, found by a prefix sum of the per-pair open counts.
        """
        if self._unresolved_total == 0:
            raise NoQueriesLeftError("all pairs resolved for all voters")
        # pool[k] is the pair of weights[k]; None means every pair, in order.
        # Pairs without open voters weigh 0, which the prefix sum passes over;
        # a pool is empty when its prefix sum ends at 0.
        pool = None
        weights = self._open_count
        ends = None
        if policy.selector == ES:
            es_pool = self._es_pools[self._mid_total.argmax()]
            es_weights = weights[es_pool]
            es_ends = es_weights.cumsum()
            if es_ends[-1]:
                pool, weights, ends = es_pool, es_weights, es_ends
        if policy.careful:
            safe_weights = weights * (self._safe if pool is None else self._safe[pool])
            safe_ends = safe_weights.cumsum()
            if safe_ends[-1]:
                weights, ends = safe_weights, safe_ends
        if ends is None:
            ends = weights.cumsum()
        r = rng.randrange(int(ends[-1]))
        k = int(ends.searchsorted(r, side="right"))
        pair = k if pool is None else int(pool[k])
        rank = r - int(ends[k] - weights[k])
        voter = int(self._open[:, pair].nonzero()[0][rank])
        return Query(voter, int(self._first[pair]), int(self._second[pair]))

    def apply_response(
        self,
        query: Query,
        response: tuple[CandidateId, CandidateId],
        manipulated: bool = False,
    ) -> None:
        """Fold an answer into the queried voter's relation and refresh caches.

        Raises ``InconsistencyError`` if the answer contradicts the closure of
        the voter's earlier answers (a lying or erroneous voter).
        """
        a, b = response
        if {a, b} != {query.cj, query.ck}:
            raise ValueError("response candidates do not match the query")
        v = query.voter
        old = self.qs[v]
        if old.mat[a, b]:
            raise ValueError("query was already resolved for this voter")
        new = add_preference(old, a, b)  # raises InconsistencyError on conflict
        committed = new.mat & ~old.mat  # x over y newly committed by the closure
        flat = committed.ravel()
        resolved = flat.take(self._upper) | flat.take(self._lower)
        self._open[v, resolved] = False
        np.subtract(self._open_count, resolved, out=self._open_count)
        self._unresolved_total -= int(np.count_nonzero(resolved))
        # each new x over y raises x's sigma_min and lowers y's sigma_max by one
        self._mid_total += committed.sum(axis=1) - committed.sum(axis=0)
        self.qs[v] = new
        fresh = pair_diff_matrix(new)
        self._total += fresh - self._diffs[v]
        self._diffs[v] = fresh
        pw_at_issue = self.pw_cache
        pw = possible_winners_from_total(self._total)
        if pw != pw_at_issue:
            self._set_pw(pw)
        self.history.append(TraceStep(query, (a, b), manipulated, pw_at_issue))
        self.round += 1


def run_election(
    profiles: Sequence[LinearOrder],
    behavior: str,
    policy: Policy,
    rng: random.Random,
    check_invariants: bool = True,
) -> ElectionResult:
    """Run one election to termination and return its outcome and trace.

    Loops compute-possible-winners / select-query / voter-responds /
    incorporate-answer until a necessary winner exists, which is guaranteed
    within n*m*(m-1)/2 queries.  ``check_invariants`` enforces at runtime that
    manipulations keep the possible winners in the voter's original order and
    strictly widen their span, and that every voter's current ranking still
    orders the final possible winners exactly as her true ranking does.
    """
    if behavior not in BEHAVIORS:
        raise ValueError(f"unknown behavior {behavior!r}")
    n = len(profiles)
    if n == 0:
        raise ValueError("need at least one voter")
    m = profiles[0].m
    if any(p.m != m for p in profiles):
        raise ValueError("all profiles must rank the same candidates")

    voters = [VoterState(p) for p in profiles]
    state = CenterState(n, m)
    max_queries = n * m * (m - 1) // 2

    while True:
        winner = state.necessary_winner()
        if winner is not None:
            break
        if state.round >= max_queries:
            raise AssertionError("election failed to terminate within the query bound")
        pw = state.pw_cache
        query = state.select_query(policy, rng)
        vs = voters[query.voter]
        before = vs.p_current
        # the voter searches against what she has revealed: the center's relation
        answer, manipulated = vs.respond(
            query.cj, query.ck, state.qs[query.voter], pw, behavior
        )
        if check_invariants and manipulated:
            pw_seen = order_pw(before, pw)
            if order_pw(vs.p_current, pw) != pw_seen:
                raise TraceInvariantError("manipulation reordered the possible winners")
            if segment_total(vs.p_current, pw_seen) <= segment_total(before, pw_seen):
                raise TraceInvariantError("manipulation did not widen the possible-winner span")
        state.apply_response(query, answer, manipulated)

    if check_invariants:
        # Current rankings only ever change against the possible winners they
        # saw, and the set shrinks monotonically, so agreement on the final
        # set certifies agreement at every earlier round.
        final_pw = state.pw_cache
        for vs in voters:
            if project(vs.p_current, final_pw) != project(vs.p_true, final_pw):
                raise TraceInvariantError(
                    "a voter's current ranking orders the possible winners "
                    "differently from her true ranking"
                )

    manipulated_count = sum(1 for step in state.history if step.manipulated)
    return ElectionResult(
        winner=winner,
        queries_issued=state.round,
        max_queries=max_queries,
        manipulated_count=manipulated_count,
        trace=state.history,
    )
