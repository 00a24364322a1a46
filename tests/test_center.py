"""Tests for the voting center and the election loop."""

import random

import pytest

from iterborda.borda import borda_winner
from iterborda.center import (
    ES,
    POLICIES,
    RANDOM,
    CenterState,
    NoQueriesLeftError,
    Policy,
    Query,
    TraceInvariantError,
    is_safe,
    run_election,
)
from iterborda.manipulation import ManipulationOutcome, order_pw
from iterborda.prefs import InconsistencyError, LinearOrder, close
from iterborda.voter import MANIPULATIVE, TRUTHFUL, VoterState

from center_helpers import possible_winners, unresolved


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


class TestPolicy:
    def test_parse_inverts_name(self):
        for policy in POLICIES:
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
            for policy in POLICIES:
                res = run_election(profiles, TRUTHFUL, policy, random.Random(rng.random()))
                assert res.winner == borda_winner(profiles)
                assert res.manipulated_count == 0

    def test_safe_queries_never_manipulated(self):
        rng = random.Random(31)
        for _ in range(15):
            profiles = random_profiles(5, 5, rng)
            for policy in POLICIES:
                res = run_election(
                    profiles, MANIPULATIVE, policy, random.Random(rng.random())
                )
                for step in res.trace:
                    if is_safe(step.query, step.pw):
                        assert not step.manipulated

    @pytest.mark.parametrize(
        "rewrite",
        [
            # reversing the ranking answers ck over cj and reverses the
            # possible winners, all m of them at the first query
            lambda p: LinearOrder(reversed(p.ranking)),
            # keeping the ranking widens no gap
            lambda p: p,
        ],
        ids=["reordered", "not-widened"],
    )
    def test_invalid_rewrite_raises(self, monkeypatch, rewrite):
        def bad_search(p, q, pw, cj, ck):
            return ManipulationOutcome(True, rewrite(p), 1)

        monkeypatch.setattr("iterborda.voter.find_manipulation", bad_search)
        profiles = random_profiles(4, 3, random.Random(37))
        with pytest.raises(TraceInvariantError, match="not locally dominant"):
            run_election(profiles, MANIPULATIVE, Policy(RANDOM), random.Random(0))

    def test_gap_shrinking_rewrite_raises(self, monkeypatch):
        """A rewrite that keeps the possible winners' order and widens their
        total span, yet shrinks one gap between them, is not locally dominant."""

        def bad_search(p, q, pw, cj, ck):
            pw_ordered = order_pw(p, pw)
            if 3 <= len(pw_ordered) < p.m:
                rank = p.rank_of
                first_gap = p.ranking[rank[pw_ordered[0]] + 1 : rank[pw_ordered[1]]]
                below = p.ranking[rank[pw_ordered[-1]] + 1 :]
                if first_gap and below:
                    # the first gap loses x, the second gains x and y
                    x, y = first_gap[0], below[0]
                    rest = [c for c in p.ranking if c not in (x, y)]
                    at = rest.index(pw_ordered[1]) + 1
                    new_order = LinearOrder(rest[:at] + [x, y] + rest[at:])
                    # the span from the first to the last possible winner
                    # still widens by one, so a rule that reads only the
                    # span would accept this rewrite
                    new_rank = new_order.rank_of
                    first, last = pw_ordered[0], pw_ordered[-1]
                    assert new_rank[last] - new_rank[first] == rank[last] - rank[first] + 1
                    return ManipulationOutcome(True, new_order, 3)
            return ManipulationOutcome(False, p, 0)

        monkeypatch.setattr("iterborda.voter.find_manipulation", bad_search)
        profiles = random_profiles(7, 4, random.Random(37))
        with pytest.raises(TraceInvariantError, match="not locally dominant"):
            run_election(profiles, MANIPULATIVE, Policy(RANDOM), random.Random(0))

    @pytest.mark.parametrize("behavior", [TRUTHFUL, MANIPULATIVE])
    def test_trace_step_records_query_answer_and_pw_at_issue(self, behavior):
        rng = random.Random(41)
        manipulated_runs = 0
        for trial in range(12):
            profiles = random_profiles(4, 3, rng)
            policy = POLICIES[trial % len(POLICIES)]
            result = run_election(profiles, behavior, policy, random.Random(trial))
            trace = result.trace
            assert trace[0].pw == frozenset(range(4))
            for step, later in zip(trace, trace[1:]):
                assert later.pw <= step.pw
            # each step's pw is the set computed from the answers before it;
            # each answer agrees with the voter's ranking after its step, and a
            # manipulated answer reverses her ranking before it
            answers = [[] for _ in profiles]
            rankings = list(profiles)
            for step in trace:
                q = step.query
                qs = [close(pairs, 4) for pairs in answers]
                assert step.pw == frozenset(possible_winners(qs))
                answers[q.voter].append(step.response)
                assert sorted(step.response) == [q.cj, q.ck]
                if step.manipulated:
                    assert rankings[q.voter].prefers(*step.response[::-1])
                    rankings[q.voter] = step.adopted
                assert rankings[q.voter].prefers(*step.response)
            manipulated_runs += any(step.manipulated for step in trace)
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
        vs = VoterState(LinearOrder([0, 1, 2]), MANIPULATIVE)
        answer, adopted = vs.respond(0, 1, state.qs[0], state.pw_cache)
        state.apply_response(Query(0, 0, 1), answer)
        assert answer == (1, 0)
        assert adopted == vs.p_current == LinearOrder([1, 0, 2])

    def test_rejects_bad_inputs(self, monkeypatch):
        with pytest.raises(ValueError):
            run_election([], TRUTHFUL, Policy(RANDOM), random.Random(0))
        for n, m in ((0, 3), (2, 1)):
            with pytest.raises(ValueError, match="at least one voter and two candidates"):
                CenterState(n, m)
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
        # at m = 2 no answer resolves another pair, so the query bound is reached
        monkeypatch.setattr(CenterState, "necessary_winner", lambda self: None)
        with pytest.raises(AssertionError, match="failed to terminate"):
            run_election([LinearOrder([0, 1])] * 3, TRUTHFUL, Policy(RANDOM), random.Random(0))

    def test_twin_only_for_truthful_runs(self):
        profiles = random_profiles(4, 3, random.Random(37))
        manip = run_election(profiles, MANIPULATIVE, Policy(RANDOM), random.Random(5))
        with pytest.raises(ValueError):
            run_election(profiles, MANIPULATIVE, Policy(RANDOM), random.Random(5), twin=manip)
