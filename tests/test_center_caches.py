"""Stateful check of the voting center's incremental caches.

A hypothesis state machine feeds a ``CenterState`` random consistent answers
and, after every step, runs ``assert_caches_match``.  It stays at m <= 7;
feeding the recorded answers of manipulative elections at m = 30 to a fresh
center runs the same check at every round and on each fork.  A rule swaps in
``CenterState.copy()`` and keeps the original, whose relations, possible
winners and caches must not move as the copy answers on.  The machine is the
unit suite's check of query selection: from the same RNG state, every
policy must pick what the list-walk selector ``reference_select`` picks,
rebuilding the pool from scratch every time, and leave the RNG in the same
state (one ``randrange`` over the same pool size).
"""

import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

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

from center_helpers import (
    assert_caches_match,
    load_module,
    possible_winners,
    reference_mid_total,
    reference_select,
    unresolved,
)


def select_from_scratch(qs, policy, rng):
    """``reference_select`` on the open pairs, midpoints and PW recomputed from ``qs``."""
    open_pairs = [set(unresolved_pairs(q)) for q in qs]
    return reference_select(open_pairs, reference_mid_total(qs), possible_winners(qs), policy, rng)


def cloned(rng):
    twin = random.Random()
    twin.setstate(rng.getstate())
    return twin


class CenterCaches(RuleBasedStateMachine):
    @initialize(n=st.integers(1, 4), m=st.integers(2, 7), seed=st.integers(0, 2**32))
    def start(self, n, m, seed):
        self.state = CenterState(n, m)
        self.rng = random.Random(seed)
        # each state a copy was taken from, with its relations and possible winners then
        self.originals = []

    @rule(seed=st.integers(0, 2**32))
    def reseed(self, seed):
        self.rng = random.Random(seed)

    @rule()
    def copy(self):
        # carry on with a copy; the invariants check both from here on
        self.originals.append((self.state, list(self.state.qs), self.state.pw_cache))
        self.state = self.state.copy()

    @precondition(lambda self: unresolved(self.state))
    @rule(policy=st.sampled_from(POLICIES), flip=st.booleans())
    def answer_selected_query(self, policy, flip):
        query = self.state.select_query(policy, self.rng)
        self._answer(query, flip)

    @precondition(lambda self: unresolved(self.state))
    @rule(data=st.data(), flip=st.booleans())
    def answer_any_open_query(self, data, flip):
        query = data.draw(st.sampled_from(unresolved(self.state)))
        self._answer(query, flip)

    def _answer(self, query, flip):
        # either direction of an open pair is consistent with a closed relation
        answer = (query.ck, query.cj) if flip else (query.cj, query.ck)
        self.state.apply_response(query, answer)

    @invariant()
    def caches_match_recomputation(self):
        assert_caches_match(self.state)
        for original, qs, pw in self.originals:
            assert original.qs == qs and original.pw_cache == pw
            assert_caches_match(original)

    @invariant()
    def selection_matches_list_walk(self):
        for policy in POLICIES:
            rng = random.Random(self.rng.random())
            twin = cloned(rng)
            try:
                expected = select_from_scratch(self.state.qs, policy, twin)
            except NoQueriesLeftError:
                expected = NoQueriesLeftError
            try:
                got = self.state.select_query(policy, rng)
            except NoQueriesLeftError:
                got = NoQueriesLeftError
            assert got == expected
            assert rng.getstate() == twin.getstate()


# no shrink phase: shrinking a failing run took 60-110 s
CenterCaches.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None, phases=set(Phase) - {Phase.shrink}
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
        assert query == select_from_scratch(state.qs, policy, twin)
        assert rng.getstate() == twin.getstate()
        drawn.add(query)
    assert drawn == {Query(v, a, b) for a, b in [(1, 2), (1, 3), (2, 3)] for v in range(2)}


def test_replay_m30_checks_caches_every_round():
    # the fixed m = 30 Mallows population the benchmark's large workload
    # samples from (200 draws, phi 0.9, seed 30)
    path = Path(__file__).resolve().parents[1] / "demos" / "make_sample_data.py"
    ds = load_module(path).make_sample("mallows30", 30, 200, 0.9, 30)
    manipulations = 0
    for k, policy in enumerate(POLICIES):
        profiles = sample_profiles(ds, 5, random.Random(100 + k))
        result = run_election(profiles, MANIPULATIVE, policy, random.Random(200 + k))
        # a copy made mid-election and left alone as the run went on, or the end state
        assert_caches_match(result.fork[0])
        state = CenterState(5, 30)
        for step in result.trace:
            assert step.pw == state.pw_cache
            state.apply_response(step.query, step.response)
            assert_caches_match(state)
        assert state.pw_cache == {result.winner}
        manipulations += result.manipulated_count
    assert manipulations > 0
