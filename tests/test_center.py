"""Tests for the voting center and the election loop."""

import random

import pytest

from iterborda.borda import borda_winner, possible_winners
from iterborda.center import (
    ES,
    RANDOM,
    CenterState,
    NoQueriesLeftError,
    Policy,
    Query,
    is_safe,
    run_election,
)
from iterborda.prefs import InconsistencyError, LinearOrder, close
from iterborda.voter import MANIPULATIVE, TRUTHFUL, VoterState

ALL_POLICIES = [Policy(sel, careful) for sel in (ES, RANDOM) for careful in (False, True)]


def random_profiles(m, n, rng):
    return [LinearOrder(rng.sample(range(m), m)) for _ in range(n)]


def elicit_everything(state, order, voter):
    """Feed a voter's complete ranking into the center."""
    for i in range(order.m):
        for j in range(i + 1, order.m):
            a, b = order.ranking[i], order.ranking[j]
            pair = (min(a, b), max(a, b))
            if state.qs[voter].holds(a, b) or state.qs[voter].holds(b, a):
                continue
            state.apply_response(Query(voter, *pair), (a, b))


class TestCenterState:
    def test_fresh_unresolved_count(self):
        state = CenterState(n=4, m=5)
        assert state.unresolved_count() == 4 * 10
        assert len(state.unresolved()) == 40

    def test_closure_resolves_queries(self):
        state = CenterState(n=1, m=3)
        state.apply_response(Query(0, 0, 1), (0, 1))
        state.apply_response(Query(0, 1, 2), (1, 2))
        assert state.unresolved_count() == 0  # (0,2) inferred
        assert state.qs[0] == close({(0, 1), (1, 2)}, 3)

    def test_complete_state_has_no_queries(self):
        state = CenterState(n=2, m=3)
        rng = random.Random(0)
        for v, order in enumerate(random_profiles(3, 2, rng)):
            elicit_everything(state, order, v)
        assert state.unresolved_count() == 0
        with pytest.raises(NoQueriesLeftError):
            state.select_query(Policy(RANDOM), rng)

    def test_contradictory_response_detected(self):
        state = CenterState(n=1, m=3)
        state.apply_response(Query(0, 0, 1), (0, 1))
        state.apply_response(Query(0, 1, 2), (1, 2))
        with pytest.raises(InconsistencyError):
            state.apply_response(Query(0, 0, 2), (2, 0))

    def test_resolved_query_rejected(self):
        state = CenterState(n=1, m=3)
        state.apply_response(Query(0, 0, 1), (0, 1))
        with pytest.raises(ValueError):
            state.apply_response(Query(0, 0, 1), (0, 1))

    def test_mismatched_response_rejected(self):
        state = CenterState(n=1, m=3)
        with pytest.raises(ValueError):
            state.apply_response(Query(0, 0, 1), (0, 2))

    def test_pw_cache_tracks_possible_winners(self):
        rng = random.Random(1)
        state = CenterState(n=2, m=4)
        orders = random_profiles(4, 2, rng)
        previous = state.pw_cache
        for v, order in enumerate(orders):
            for a, b in [(0, 1), (1, 2), (2, 3)]:
                x, y = (a, b) if order.prefers(a, b) else (b, a)
                if state.qs[v].holds(x, y):
                    continue
                state.apply_response(Query(v, a, b), (x, y))
                assert state.pw_cache == frozenset(possible_winners(state.qs))
                assert state.pw_cache <= previous
                previous = state.pw_cache

    def test_history_and_round_in_step(self):
        state = CenterState(n=1, m=3)
        state.apply_response(Query(0, 1, 2), (2, 1))
        assert state.round == 1
        assert len(state.history) == 1
        step = state.history[0]
        assert step.response == (2, 1)
        assert step.pw == frozenset({0, 1, 2})  # set at issue time


class TestIsSafe:
    def test_both_in(self):
        assert is_safe(Query(0, 1, 2), {1, 2})

    def test_one_out(self):
        assert not is_safe(Query(0, 0, 1), {1, 2})

    def test_full_set(self):
        assert is_safe(Query(0, 0, 1), {0, 1, 2})


class TestSelectQuery:
    def test_single_remaining_query_returned(self):
        state = CenterState(n=1, m=3)
        state.apply_response(Query(0, 0, 1), (0, 1))
        state.apply_response(Query(0, 0, 2), (2, 0))
        # only (1,2)... wait: 2>0>1 leaves (1,2) resolved by closure?
        remaining = state.unresolved()
        assert len(remaining) <= 1
        if remaining:
            rng = random.Random(0)
            for policy in ALL_POLICIES:
                assert state.select_query(policy, rng) == remaining[0]

    def test_es_fresh_state_targets_lowest_id(self):
        state = CenterState(n=3, m=4)
        rng = random.Random(5)
        for _ in range(20):
            q = state.select_query(Policy(ES), rng)
            assert 0 in (q.cj, q.ck)  # all midpoints tie; id 0 wins the argmax

    def test_careful_returns_safe_query_when_available(self):
        rng = random.Random(7)
        state = CenterState(n=3, m=4)
        orders = random_profiles(4, 3, rng)
        # resolve a few pairs to shrink the possible-winner set
        for v, order in enumerate(orders):
            for a, b in [(0, 1), (2, 3)]:
                x, y = (a, b) if order.prefers(a, b) else (b, a)
                if not state.qs[v].holds(x, y):
                    state.apply_response(Query(v, a, b), (x, y))
        pw = state.pw_cache
        if len(pw) >= 2:
            safe_exists = any(
                is_safe(q, pw) for q in state.unresolved()
            )
            for policy in (Policy(ES, careful=True), Policy(RANDOM, careful=True)):
                q = state.select_query(policy, rng)
                if safe_exists and policy.selector == RANDOM:
                    assert is_safe(q, pw)

    def test_careful_falls_back_when_no_safe_query(self):
        # complete one voter fully; with a single voter the possible winner
        # narrows until no safe pair remains unresolved
        state = CenterState(n=1, m=3)
        state.apply_response(Query(0, 0, 1), (0, 1))
        pw = state.pw_cache
        rng = random.Random(9)
        q = state.select_query(Policy(RANDOM, careful=True), rng)
        assert q in state.unresolved()

    def test_selection_is_deterministic_given_seed(self):
        state = CenterState(n=4, m=5)
        picks1 = [state.select_query(p, random.Random(42)) for p in ALL_POLICIES]
        picks2 = [state.select_query(p, random.Random(42)) for p in ALL_POLICIES]
        assert picks1 == picks2


class TestRunElection:
    def test_single_truthful_voter_elects_top(self):
        p = LinearOrder([2, 0, 1])
        res = run_election([p], TRUTHFUL, Policy(RANDOM), random.Random(0))
        assert res.winner == 2

    def test_truthful_runs_recover_borda_winner(self):
        rng = random.Random(21)
        for _ in range(40):
            m = rng.randint(2, 6)
            n = rng.randint(1, 8)
            profiles = random_profiles(m, n, rng)
            for policy in ALL_POLICIES:
                res = run_election(profiles, TRUTHFUL, policy, random.Random(rng.random()))
                assert res.winner == borda_winner(profiles)
                assert res.manipulated_count == 0

    def test_termination_bound_and_no_repeats(self):
        rng = random.Random(23)
        for _ in range(20):
            m = rng.randint(2, 6)
            n = rng.randint(1, 6)
            profiles = random_profiles(m, n, rng)
            res = run_election(
                profiles, MANIPULATIVE, Policy(RANDOM), random.Random(rng.random())
            )
            assert res.queries_issued <= res.max_queries == n * m * (m - 1) // 2
            seen = {(s.query.voter, s.query.cj, s.query.ck) for s in res.trace}
            assert len(seen) == len(res.trace)

    def test_identical_seeds_identical_traces(self):
        rng = random.Random(29)
        profiles = random_profiles(5, 4, rng)
        for policy in ALL_POLICIES:
            a = run_election(profiles, MANIPULATIVE, policy, random.Random(99))
            b = run_election(profiles, MANIPULATIVE, policy, random.Random(99))
            assert a.trace == b.trace and a.winner == b.winner

    def test_safe_queries_never_manipulated(self):
        rng = random.Random(31)
        for _ in range(15):
            profiles = random_profiles(5, 5, rng)
            for policy in ALL_POLICIES:
                res = run_election(
                    profiles, MANIPULATIVE, policy, random.Random(rng.random())
                )
                for step in res.trace:
                    if is_safe(step.query, step.pw):
                        assert not step.manipulated

    def test_toy_scenario_reached_through_center(self):
        # two fully elicited voters leave possible winners {1, 2}; the third,
        # ranking 0 > 1 > 2, is then asked 0-vs-1 and flips it
        state = CenterState(n=3, m=3)
        elicit_everything(state, LinearOrder([1, 2, 0]), 1)
        elicit_everything(state, LinearOrder([2, 1, 0]), 2)
        assert state.pw_cache == frozenset({1, 2})
        vs = VoterState(LinearOrder([0, 1, 2]))
        answer, manipulated = vs.respond(0, 1, state.qs[0], state.pw_cache, MANIPULATIVE)
        state.apply_response(Query(0, 0, 1), answer, manipulated)
        assert manipulated
        assert answer == (1, 0)
        assert vs.p_current == LinearOrder([1, 0, 2])

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            run_election([], TRUTHFUL, Policy(RANDOM), random.Random(0))
        with pytest.raises(ValueError):
            run_election(
                [LinearOrder([0, 1]), LinearOrder([0, 1, 2])],
                TRUTHFUL,
                Policy(RANDOM),
                random.Random(0),
            )
        with pytest.raises(ValueError):
            run_election([LinearOrder([0, 1])], "sneaky", Policy(RANDOM), random.Random(0))
        with pytest.raises(ValueError):
            Policy("greedy")
