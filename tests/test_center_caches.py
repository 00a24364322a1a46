"""Stateful check of the voting center's incremental caches.

A hypothesis state machine feeds a ``CenterState`` random consistent answers
and, after every step, recomputes each cache from the voters' relations alone
and compares.  It stays at m <= 7; feeding the recorded answers of
manipulative elections at m = 30 to a fresh center checks the same caches at
every round.  A rule swaps in ``CenterState.copy()``, so the caches of copies
are checked the same way.  Query selection is compared with a
reference copy of the original list-walk selector, which rebuilds the pool
from scratch every time: the same RNG state must give the same query and
leave the RNG in the same state (one ``randrange`` over the same pool size).
"""

import importlib.util
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from iterborda import borda
from iterborda.center import (
    ES,
    POLICIES,
    CenterState,
    NoQueriesLeftError,
    Policy,
    Query,
    run_election,
)
from iterborda.preflib import sample_profiles
from iterborda.prefs import unresolved_pairs
from iterborda.voter import MANIPULATIVE

from center_helpers import necessary_winner, possible_winners, unresolved


def reference_pair_voters(qs):
    """Unresolved (a < b) pair -> voters for whom it is open, in draw order."""
    m = qs[0].m
    open_sets = [set(unresolved_pairs(q)) for q in qs]
    return {
        (a, b): [v for v, pairs in enumerate(open_sets) if (a, b) in pairs]
        for a in range(m)
        for b in range(a + 1, m)
    }


def reference_mid_total(qs):
    """Summed sigma_min + sigma_max, counted from the boolean relations."""
    m = qs[0].m
    return sum(1 + q.mat.sum(axis=1) + m - q.mat.sum(axis=0) for q in qs)


def assert_total_matches(state):
    expected = sum(
        borda.pair_diff_matrix(q, borda.score_bounds_vectors(q)).astype(np.int64)
        for q in state.qs
    )
    assert np.array_equal(state._total, expected)


def reference_open_mask(qs):
    """Pair-by-voter mask of the open (a < b) pairs, in lexicographic pair order."""
    upper = np.triu_indices(qs[0].m, 1)
    return np.stack([~(q.mat | q.mat.T)[upper] for q in qs], axis=1)


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
        pw = possible_winners(qs)
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

    @precondition(lambda self: self.state._open.any())
    @rule(policy=st.sampled_from(POLICIES), flip=st.booleans())
    def answer_selected_query(self, policy, flip):
        query = self.state.select_query(policy, self.rng)
        self._answer(query, flip)

    @precondition(lambda self: self.state._open.any())
    @rule(data=st.data(), flip=st.booleans())
    def answer_any_open_query(self, data, flip):
        query = data.draw(st.sampled_from(unresolved(self.state)))
        self._answer(query, flip)

    def _answer(self, query, flip):
        # either direction of an open pair is consistent with a closed relation
        answer = (query.ck, query.cj) if flip else (query.cj, query.ck)
        self.state.apply_response(query, answer)

    @invariant()
    def total_matches_recomputation(self):
        assert_total_matches(self.state)

    @invariant()
    def winners_match_recomputation(self):
        qs = self.state.qs
        assert self.state.pw_cache == frozenset(possible_winners(qs))
        assert self.state.necessary_winner() == necessary_winner(qs)

    @invariant()
    def unresolved_matches_recomputation(self):
        pair_voters = reference_pair_voters(self.state.qs)
        expected = [Query(v, a, b) for (a, b), vs in pair_voters.items() for v in vs]
        assert unresolved(self.state) == expected
        assert np.array_equal(self.state._open, reference_open_mask(self.state.qs))

    @invariant()
    def midpoints_match_recomputation(self):
        assert np.array_equal(self.state._mid_total, reference_mid_total(self.state.qs))

    @invariant()
    def per_voter_caches_match_recomputation(self):
        # voters start out sharing one midpoint vector and one pair-diff
        # matrix, so a write into one voter's entry in place shows up here
        state = self.state
        for q, mids, diff in zip(state.qs, state._mids, state._diffs):
            bounds = borda.score_bounds_vectors(q)
            assert np.array_equal(mids, bounds[0] + bounds[1])
            assert np.array_equal(diff, borda.pair_diff_matrix(q, bounds))

    @invariant()
    def selection_matches_list_walk(self):
        for policy in POLICIES:
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


@pytest.mark.parametrize("policy", [Policy(ES), Policy(ES, careful=True)], ids=lambda p: p.name)
def test_es_falls_back_to_every_pair_when_its_star_is_resolved(policy):
    # both voters put candidate 0 first: it tops the midpoints, its pairs are
    # all resolved, and as the necessary winner it leaves no query safe
    state = CenterState(2, 4)
    for v in range(2):
        for x in range(1, 4):
            state.apply_response(Query(v, 0, x), (0, x))
    assert int(np.argmax(reference_mid_total(state.qs))) == 0
    rng = random.Random(12)
    drawn = set()
    for _ in range(200):
        twin = cloned(rng)
        query = state.select_query(policy, rng)
        assert query == reference_select(state.qs, policy, twin)
        assert rng.getstate() == twin.getstate()
        drawn.add(query)
    assert drawn == {Query(v, a, b) for a, b in [(1, 2), (1, 3), (2, 3)] for v in range(2)}


def mallows30():
    """The fixed m = 30 Mallows population the benchmark's large workload
    samples from (200 draws, phi 0.9, seed 30)."""
    path = Path(__file__).resolve().parents[1] / "demos" / "make_sample_data.py"
    spec = importlib.util.spec_from_file_location("make_sample_data", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.make_sample("mallows30", 30, 200, 0.9, 30)


def test_replay_m30_checks_caches_every_round():
    ds = mallows30()
    manipulations = 0
    for k, policy in enumerate(POLICIES):
        profiles = sample_profiles(ds, 5, random.Random(100 + k))
        result = run_election(profiles, MANIPULATIVE, policy, random.Random(200 + k))
        state = CenterState(5, 30)
        for step in result.trace:
            assert step.pw == state.pw_cache
            state.apply_response(step.query, step.response)
            qs = state.qs
            assert_total_matches(state)
            assert np.array_equal(state._mid_total, reference_mid_total(qs))
            assert state.pw_cache == frozenset(possible_winners(qs))
            assert np.array_equal(state._open, reference_open_mask(qs))
            assert state.necessary_winner() == necessary_winner(qs)
        assert state.pw_cache == {result.winner}
        manipulations += result.manipulated_count
    assert manipulations > 0
