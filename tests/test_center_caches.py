"""Stateful check of the voting center's incremental caches.

A hypothesis state machine feeds a ``CenterState`` random consistent answers
and, after every step, recomputes each cache from the voters' relations alone
and compares.  A rule swaps in ``CenterState.copy()``, so the caches of
copies are checked the same way.  Query selection is compared with a
reference copy of the original list-walk selector, which rebuilds the pool
from scratch every time: the same RNG state must give the same query and
leave the RNG in the same state (one ``randrange`` over the same pool size).
"""

import random

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from iterborda import borda
from iterborda.center import ES, CenterState, NoQueriesLeftError, Policy, Query

ALL_POLICIES = [Policy(sel, careful) for sel in ("es", "random") for careful in (False, True)]


def reference_pair_voters(qs):
    """Unresolved (a < b) pair -> voters for whom it is open, in draw order."""
    m = qs[0].m
    open_sets = [set(q.unresolved_pairs()) for q in qs]
    return {
        (a, b): [v for v, pairs in enumerate(open_sets) if (a, b) in pairs]
        for a in range(m)
        for b in range(a + 1, m)
    }


def reference_mid_total(qs):
    return sum(
        (smin + smax).astype(np.int64)
        for smin, smax in (borda.score_bounds_vectors(q) for q in qs)
    )


def reference_select(qs, policy, rng):
    """The list-walk selector: rebuild the pool, draw once, walk to the query."""
    full = [(pair, vs) for pair, vs in reference_pair_voters(qs).items() if vs]
    if not full:
        raise NoQueriesLeftError("all pairs resolved for all voters")
    pool = full
    if policy.selector == ES:
        star = int(np.argmax(reference_mid_total(qs)))
        pool = [(pair, vs) for pair, vs in full if star in pair] or full
    if policy.careful:
        pw = borda.possible_winners(qs)
        safe = [(pair, vs) for pair, vs in pool if pair[0] in pw and pair[1] in pw]
        if safe:
            pool = safe
    r = rng.randrange(sum(len(vs) for _, vs in pool))
    for (a, b), voters in pool:
        if r < len(voters):
            return Query(voters[r], a, b)
        r -= len(voters)
    raise AssertionError("unreachable")


def cloned(rng):
    twin = random.Random()
    twin.setstate(rng.getstate())
    return twin


class CenterCaches(RuleBasedStateMachine):
    @initialize(n=st.integers(1, 4), m=st.integers(2, 7), seed=st.integers(0, 2**32))
    def start(self, n, m, seed):
        self.state = CenterState(n, m)
        self.rng = random.Random(seed)

    @rule(seed=st.integers(0, 2**32))
    def reseed(self, seed):
        self.rng = random.Random(seed)

    @rule()
    def copy(self):
        # carry on with a copy; the invariants then check the copy's caches
        self.state = self.state.copy()

    @precondition(lambda self: self.state.unresolved_count() > 0)
    @rule(policy=st.sampled_from(ALL_POLICIES), flip=st.booleans())
    def answer_selected_query(self, policy, flip):
        query = self.state.select_query(policy, self.rng)
        self._answer(query, flip)

    @precondition(lambda self: self.state.unresolved_count() > 0)
    @rule(data=st.data(), flip=st.booleans())
    def answer_any_open_query(self, data, flip):
        query = data.draw(st.sampled_from(self.state.unresolved()))
        self._answer(query, flip)

    def _answer(self, query, flip):
        # either direction of an open pair is consistent with a closed relation
        answer = (query.ck, query.cj) if flip else (query.cj, query.ck)
        self.state.apply_response(query, answer, manipulated=flip)

    @invariant()
    def total_matches_recomputation(self):
        expected = sum(borda.pair_diff_matrix(q).astype(np.int64) for q in self.state.qs)
        assert np.array_equal(self.state._total, expected)

    @invariant()
    def winners_match_recomputation(self):
        qs = self.state.qs
        assert self.state.pw_cache == frozenset(borda.possible_winners(qs))
        assert self.state.necessary_winner() == borda.necessary_winner(qs)

    @invariant()
    def unresolved_matches_recomputation(self):
        pair_voters = reference_pair_voters(self.state.qs)
        expected = [Query(v, a, b) for (a, b), vs in pair_voters.items() for v in vs]
        assert self.state.unresolved() == expected
        assert self.state.unresolved_count() == len(expected)
        assert self.state._open_count.tolist() == [len(vs) for vs in pair_voters.values()]

    @invariant()
    def midpoints_match_recomputation(self):
        assert np.array_equal(self.state._mid_total, reference_mid_total(self.state.qs))

    @invariant()
    def selection_matches_list_walk(self):
        for policy in ALL_POLICIES:
            rng = random.Random(self.rng.random())
            twin = cloned(rng)
            try:
                expected = reference_select(self.state.qs, policy, twin)
            except NoQueriesLeftError:
                expected = NoQueriesLeftError
            try:
                got = self.state.select_query(policy, rng)
            except NoQueriesLeftError:
                got = NoQueriesLeftError
            assert got == expected
            assert rng.getstate() == twin.getstate()


CenterCaches.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
TestCenterCaches = CenterCaches.TestCase
