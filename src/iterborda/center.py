"""The voting center: query selection, response bookkeeping, election loop.

The center knows nothing about the voters beyond their answers.  It keeps one
transitively closed relation per voter and recomputes the possible-winner set
after every answer.  The election loop stops as soon as one possible winner is
left, which for the published relaxation is exactly when a necessary winner
exists, and keeps the record of the run: one trace step per query, with the
ranking a manipulating voter adopted, which the center never sees.

A round makes one pass over the answering voter's new relation: her open
pairs overwrite her column of the pair-by-voter open mask, and her record,
her pair-difference matrix with her score midpoints as its last row,
replaces her old one in the summed record, which holds both the matrix the
possible winners are read from and the midpoints the ES heuristic ranks by.
The possible-winner set is rebuilt only when its mask moves.  Query
selection draws one open cell of the policy's rows of the open mask.
"""

from __future__ import annotations

import copy
import functools
import random
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

# necessary_winner_from_total is unused here; it stays bound because perfbench/tracer.py patches it by name
from .borda import necessary_winner_from_total  # noqa: F401
from .borda import (
    pair_diff_matrix,
    possible_winners_from_total,
    score_bounds_vectors,
)
from .manipulation import is_locally_dominant, order_pw
from .prefs import CandidateId, LinearOrder, PartialOrder, add_preference
from .voter import TRUTHFUL, VoterState

ES = "es"
RANDOM = "random"
SELECTORS = (ES, RANDOM)


class NoQueriesLeftError(RuntimeError):
    """Every pair of every voter is already resolved."""


class TraceInvariantError(AssertionError):
    """A manipulation was not locally dominant against the possible winners it saw."""


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

    @classmethod
    def parse(cls, name: str) -> Policy:
        """The policy called ``name``: the inverse of ``Policy.name``."""
        for policy in POLICIES:
            if policy.name == name:
                return policy
        raise ValueError(f"unknown policy {name!r} (use {[p.name for p in POLICIES]})")


POLICIES = tuple(Policy(selector, careful) for careful in (False, True) for selector in SELECTORS)


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
    # the ranking the voter switched to for this answer, or None if she kept hers
    adopted: LinearOrder | None
    pw: frozenset[CandidateId]

    @property
    def manipulated(self) -> bool:
        return self.adopted is not None


@dataclass
class ElectionResult:
    """Outcome and full trace of a single election run.

    ``trace`` holds one step per query issued; the counts are read off it.
    ``fork`` holds the center's state, the RNG state and a step index k.  On
    a run that manipulated, k is its first manipulated step, and the fork is
    taken after that step's query was drawn and before its answer was
    applied; on any other run, k is ``len(trace)`` and the fork is its end.
    Up to step k the truthful run on the same seed is identical, so it can
    resume from the fork there.
    """

    winner: CandidateId
    max_queries: int
    trace: list[TraceStep] = field(repr=False)
    fork: tuple[CenterState, tuple, int] = field(repr=False, compare=False)

    @property
    def queries_issued(self) -> int:
        return len(self.trace)

    @property
    def manipulated_count(self) -> int:
        return sum(step.manipulated for step in self.trace)


def is_safe(query: Query, pw: frozenset[CandidateId] | set[CandidateId]) -> bool:
    """A query is safe when both its candidates are possible winners."""
    return query.cj in pw and query.ck in pw


@functools.cache
def _pair_layout(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """Candidate pairs (a < b) in lexicographic order, once per m.

    Returns the arrays of first and second candidates and of each pair's
    flat position in an m x m matrix, indexed by pair, and for each
    candidate the ascending indices of the m - 1 pairs touching it: its ES
    pool, the rows of the open mask the ES heuristic draws from.  Every
    array is read-only.
    """
    first, second = np.triu_indices(m, 1)
    upper = first * m + second
    es_pools = tuple(np.flatnonzero((first == c) | (second == c)) for c in range(m))
    for arr in (first, second, upper, *es_pools):
        arr.flags.writeable = False
    return first, second, upper, es_pools


def _record(q: PartialOrder) -> np.ndarray:
    """A voter's (m + 1) x m record: the rows of her pair-difference matrix,
    then sigma_min + sigma_max per candidate."""
    lo, hi = bounds = score_bounds_vectors(q)
    return np.concatenate((pair_diff_matrix(q, bounds), (lo + hi)[None]))


class CenterState:
    """Per-voter partial knowledge plus the caches derived from it.

    Every cache is refreshed from the answering voter's new relation alone.
    The records and their sum are float64, exact for the integers they hold.
    """

    def __init__(self, n: int, m: int):
        if n < 1 or m < 2:
            raise ValueError("need at least one voter and two candidates")
        empty = PartialOrder(m)
        self.qs: list[PartialOrder] = [empty] * n
        self._first, self._second, self._upper, self._es_pools = _pair_layout(m)
        # _open[k, v]: pair k is still open for voter v; its True cells in C
        # order are the open queries in draw order
        self._open = np.ones((len(self._first), n), dtype=bool)
        # one record per voter, summed in _total.  Voters share the empty
        # relation and its record, as entries are replaced, never changed in
        # place.
        record = _record(empty)
        self._records, self._total = [record] * n, n * record
        self._pw_key = None
        self._set_pw()

    def copy(self) -> CenterState:
        """An independent copy: answers applied to one leave the other unchanged."""
        # relations, records, pw_cache, _safe and the pair layout are
        # replaced, never changed in place
        twin = copy.copy(self)
        twin.qs, twin._records = list(self.qs), list(self._records)
        twin._total, twin._open = self._total.copy(), self._open.copy()
        return twin

    def _set_pw(self) -> None:
        """Publish the possible winners of ``_total`` and their safe pairs if they moved."""
        mask = possible_winners_from_total(self._total[:-1])
        key = mask.tobytes()
        if key == self._pw_key:
            return
        self._pw_key = key
        self.pw_cache = frozenset(np.flatnonzero(mask).tolist())
        # one column per voter, like _open: ANDing equal shapes beats broadcasting
        safe = mask[self._first] & mask[self._second]
        self._safe = np.repeat(safe[:, None], self._open.shape[1], axis=1)

    def necessary_winner(self) -> CandidateId | None:
        """The lone possible winner, which is the necessary winner, or None.

        With ``thr[x, y]`` = 1 when y wins ties against x and 0 otherwise, c
        is the necessary winner when ``-_total[c2, c] >= thr[c, c2]`` for
        every rival c2, and c2 is a possible winner only if
        ``_total[c2, c] >= thr[c2, c]``.  The two thresholds sum to 1, so a
        necessary winner leaves no rival possible.  Conversely the published
        set contains the exact one, which is never empty, so a lone possible
        winner wins every completion.
        """
        return next(iter(self.pw_cache)) if len(self.pw_cache) == 1 else None

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
        (ascending), the C order of its rows of the open mask; one
        ``randrange`` over the pool size picks the query at that position.
        """
        # pool lists the pairs of rows; None means every pair, in order.  On
        # arrays this small, take, count_nonzero and ravel().nonzero() cost
        # about half of fancy indexing, any() and flatnonzero.
        pool = None
        rows = self._open
        if policy.selector == ES:
            es_pool = self._es_pools[self._total[-1].argmax()]
            es_rows = rows.take(es_pool, axis=0)
            if np.count_nonzero(es_rows):
                pool, rows = es_pool, es_rows
        if policy.careful:
            safe_rows = rows & (self._safe if pool is None else self._safe.take(pool, axis=0))
            if np.count_nonzero(safe_rows):
                rows = safe_rows
        flat = rows.ravel().nonzero()[0]
        if not flat.size:
            raise NoQueriesLeftError("all pairs resolved for all voters")
        row, voter = divmod(int(flat[rng.randrange(flat.size)]), rows.shape[1])
        pair = row if pool is None else int(pool[row])
        return Query(voter, int(self._first[pair]), int(self._second[pair]))

    def apply_response(self, query: Query, response: tuple[CandidateId, CandidateId]) -> None:
        """Fold an answer into the queried voter's relation and refresh caches.

        Raises ``InconsistencyError`` if the answer contradicts the closure of
        the voter's earlier answers (a lying or erroneous voter).
        """
        a, b = response
        if {a, b} != {query.cj, query.ck}:
            raise ValueError("response candidates do not match the query")
        v = query.voter
        old = self.qs[v]
        if old.mat.item(a, b):
            raise ValueError("query was already resolved for this voter")
        new = add_preference(old, a, b)  # raises InconsistencyError on conflict
        self.qs[v] = new
        mat = new.mat
        self._open[:, v] = ~(mat | mat.T).take(self._upper)
        record = _record(new)
        self._total -= self._records[v]
        self._total += record
        self._records[v] = record
        self._set_pw()


def run_election(
    profiles: Sequence[LinearOrder],
    behavior: str,
    policy: Policy,
    rng: random.Random,
    twin: ElectionResult | None = None,
) -> ElectionResult:
    """Run one election to termination and return its outcome and trace.

    Loops compute-possible-winners / select-query / voter-responds /
    incorporate-answer until a necessary winner exists, which is guaranteed
    within n*m*(m-1)/2 queries.  It raises :class:`TraceInvariantError` unless
    each manipulation is locally dominant over the voter's earlier ranking on
    the possible winners she saw, the rule she searched by.  That keeps their
    order, and the set only shrinks, so every current ranking orders them as
    the true one does; acceptance criterion 8 checks that per round.

    ``twin`` is the manipulative run on the same profiles, policy and seed;
    only a truthful run accepts it.  The two runs agree up to the twin's
    first manipulated answer, so the truthful run resumes from the twin's
    fork there and first asks that step's query, instead of replaying the
    shared prefix.  The fork of a twin that never manipulated is its end,
    where the resumed run finds the necessary winner at once.
    """
    if twin is not None and behavior != TRUTHFUL:
        raise ValueError("only a truthful run can resume from a manipulative twin")
    n = len(profiles)
    if n == 0:
        raise ValueError("need at least one voter")
    m = profiles[0].m
    if any(p.m != m for p in profiles):
        raise ValueError("all profiles must rank the same candidates")

    voters = [VoterState(p, behavior) for p in profiles]
    max_queries = n * m * (m - 1) // 2
    pending = fork = None
    if twin is None:
        state = CenterState(n, m)
        trace = []
    else:
        fork_state, rng_state, k = twin.fork
        state = fork_state.copy()
        rng.setstate(rng_state)
        trace = twin.trace[:k]
        if k < len(twin.trace):
            pending = twin.trace[k].query

    while True:
        winner = state.necessary_winner()
        if winner is not None:
            break
        if len(trace) >= max_queries:
            raise AssertionError("election failed to terminate within the query bound")
        pw = state.pw_cache
        query = pending or state.select_query(policy, rng)
        pending = None
        vs = voters[query.voter]
        before = vs.p_current
        # the voter searches against what she has revealed: the center's relation
        answer, adopted = vs.respond(query.cj, query.ck, state.qs[query.voter], pw)
        if adopted is not None:
            if not is_locally_dominant(adopted, before, order_pw(before, pw)):
                raise TraceInvariantError("manipulation is not locally dominant")
            if fork is None:
                fork = (state.copy(), rng.getstate(), len(trace))
        state.apply_response(query, answer)
        trace.append(TraceStep(query, answer, adopted, pw))

    return ElectionResult(winner, max_queries, trace, fork or (state, rng.getstate(), len(trace)))
