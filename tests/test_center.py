"""Tests for the voting center and the election loop."""

import random

import numpy as np
import pytest

from iterborda.borda import borda_winner
from iterborda.center import (
    ES,
    RANDOM,
    CenterState,
    NoQueriesLeftError,
    Policy,
    Query,
    TraceInvariantError,
    is_safe,
    run_election,
)
from iterborda.manipulation import ManipulationOutcome
from iterborda.prefs import InconsistencyError, LinearOrder, close
from iterborda.voter import MANIPULATIVE, TRUTHFUL, VoterState

from center_helpers import possible_winners, unresolved

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
        assert state._open.shape == (10, 4) and state._open.all()
        assert len(unresolved(state)) == 40

    def test_closure_resolves_queries(self):
        state = CenterState(n=1, m=3)
        state.apply_response(Query(0, 0, 1), (0, 1))
        state.apply_response(Query(0, 1, 2), (1, 2))
        assert len(unresolved(state)) == 0  # (0,2) inferred
        assert state.qs[0] == close({(0, 1), (1, 2)}, 3)

    def test_complete_state_has_no_queries(self):
        state = CenterState(n=2, m=3)
        rng = random.Random(0)
        for v, order in enumerate(random_profiles(3, 2, rng)):
            elicit_everything(state, order, v)
        assert len(unresolved(state)) == 0
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

    def test_copy_is_independent_of_original(self):
        rng = random.Random(3)
        orders = random_profiles(4, 3, rng)
        state = CenterState(n=3, m=4)
        state.apply_response(Query(0, 0, 1), (0, 1) if orders[0].prefers(0, 1) else (1, 0))
        qs, pw = list(state.qs), state.pw_cache
        arrays = {
            name: getattr(state, name).copy()
            for name in ("_total", "_mid_total", "_open")
        }
        twin = state.copy()
        for v, order in enumerate(orders):
            elicit_everything(twin, order, v)
        assert twin.pw_cache != pw and twin.qs != qs
        assert state.qs == qs
        assert state.pw_cache == pw
        for name, before in arrays.items():
            assert np.array_equal(getattr(state, name), before), name


class TestPolicy:
    def test_parse_inverts_name(self):
        for policy in ALL_POLICIES:
            assert Policy.parse(policy.name) == policy
        assert Policy.parse("careful-es") == Policy(ES, careful=True)

    def test_parse_unknown_lists_valid_names(self):
        with pytest.raises(ValueError) as excinfo:
            Policy.parse("careful-snake")
        for name in ("es", "random", "careful-es", "careful-random"):
            assert repr(name) in str(excinfo.value)


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
        remaining = unresolved(state)
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
                is_safe(q, pw) for q in unresolved(state)
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
        assert q in unresolved(state)

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

    @pytest.mark.parametrize(
        "rewrite, message",
        [
            # reversing the ranking answers ck over cj and reverses the
            # possible winners, all m of them at the first query
            (lambda p: LinearOrder(reversed(p.ranking)), "reordered"),
            # keeping the ranking widens no gap
            (lambda p: p, "did not widen"),
        ],
        ids=["reordered", "not-widened"],
    )
    def test_invalid_rewrite_raises(self, monkeypatch, rewrite, message):
        def bad_search(p, q, pw, cj, ck):
            return ManipulationOutcome(True, rewrite(p), 1)

        monkeypatch.setattr("iterborda.voter.find_manipulation", bad_search)
        profiles = random_profiles(4, 3, random.Random(37))
        with pytest.raises(TraceInvariantError, match=message):
            run_election(profiles, MANIPULATIVE, Policy(RANDOM), random.Random(0))

    @pytest.mark.parametrize("behavior", [TRUTHFUL, MANIPULATIVE])
    def test_trace_step_records_query_answer_and_pw_at_issue(self, behavior):
        rng = random.Random(41)
        manipulated_runs = 0
        for trial in range(12):
            profiles = random_profiles(4, 3, rng)
            policy = ALL_POLICIES[trial % len(ALL_POLICIES)]
            result = run_election(profiles, behavior, policy, random.Random(trial))
            trace = result.trace
            assert len(trace) == result.queries_issued
            assert trace[0].pw == frozenset(range(4))
            for step, later in zip(trace, trace[1:]):
                assert later.pw <= step.pw
            # each step's pw is the set computed from the answers before it
            answers = [[] for _ in profiles]
            for step in trace:
                qs = [close(pairs, 4) for pairs in answers]
                assert step.pw == frozenset(possible_winners(qs))
                answers[step.query.voter].append(step.response)
            assert result.manipulated_count == sum(step.manipulated for step in trace)
            # answers follow the true ranking up to the first manipulation,
            # which inverts the pair it was asked
            first = next((i for i, step in enumerate(trace) if step.manipulated), len(trace))
            for i, step in enumerate(trace):
                q = step.query
                truthful = (q.cj, q.ck) if profiles[q.voter].prefers(q.cj, q.ck) else (q.ck, q.cj)
                assert sorted(step.response) == [q.cj, q.ck]
                if i < first:
                    assert step.response == truthful
                elif i == first:
                    assert step.response == truthful[::-1]
            manipulated_runs += first < len(trace)
        if behavior == MANIPULATIVE:
            assert manipulated_runs
        else:
            assert manipulated_runs == 0

    def test_toy_scenario_reached_through_center(self):
        # two fully elicited voters leave possible winners {1, 2}; the third,
        # ranking 0 > 1 > 2, is then asked 0-vs-1 and flips it
        state = CenterState(n=3, m=3)
        elicit_everything(state, LinearOrder([1, 2, 0]), 1)
        elicit_everything(state, LinearOrder([2, 1, 0]), 2)
        assert state.pw_cache == frozenset({1, 2})
        vs = VoterState(LinearOrder([0, 1, 2]))
        answer, manipulated = vs.respond(0, 1, state.qs[0], state.pw_cache, MANIPULATIVE)
        state.apply_response(Query(0, 0, 1), answer)
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

    def test_twin_only_for_truthful_runs(self):
        profiles = random_profiles(4, 3, random.Random(37))
        manip = run_election(profiles, MANIPULATIVE, Policy(RANDOM), random.Random(5))
        with pytest.raises(ValueError):
            run_election(profiles, MANIPULATIVE, Policy(RANDOM), random.Random(5), twin=manip)
