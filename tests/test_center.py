"""Tests for the voting center and the election loop."""

import random

import numpy as np
import pytest

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
from iterborda.voter import MANIPULATIVE, TRUTHFUL

from center_helpers import unresolved


def random_profiles(m, n, rng):
    return [LinearOrder(rng.sample(range(m), m)) for _ in range(n)]


def elicit_everything(state, order, voter):
    """Feed a voter's complete ranking into the center."""
    for i in range(order.m):
        for j in range(i + 1, order.m):
            a, b = order.ranking[i], order.ranking[j]
            pair = (min(a, b), max(a, b))
            if state.qs[voter].item(a, b) or state.qs[voter].item(b, a):
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
        assert np.array_equal(state.qs[0], close({(0, 1), (1, 2)}, 3))

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

    def test_careful_must_be_bool(self):
        for careful in (1, "no", None):
            with pytest.raises(ValueError, match="careful must be a bool"):
                Policy(ES, careful)


class TestIsSafe:
    def test_both_in(self):
        assert is_safe(Query(0, 1, 2), {1, 2})

    def test_one_out(self):
        assert not is_safe(Query(0, 0, 1), {1, 2})

    def test_full_set(self):
        assert is_safe(Query(0, 0, 1), {0, 1, 2})


class TestRunElection:
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
