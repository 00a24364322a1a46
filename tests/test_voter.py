"""Tests for voter agents."""

import random

import numpy as np
import pytest

from iterborda.center import CenterState, Query
from iterborda.manipulation import PreconditionViolationError, order_pw
from iterborda.prefs import LinearOrder, PartialOrder, close
from iterborda.voter import MANIPULATIVE, TRUTHFUL, VoterState

from center_helpers import is_extension


class TestTruthful:
    def test_answers_follow_true_ranking(self):
        vs = VoterState(LinearOrder([0, 1, 2]))
        answer, manipulated = vs.respond(1, 2, PartialOrder(3), {0, 1, 2}, TRUTHFUL)
        assert answer == (1, 2)
        assert not manipulated

    def test_orientation_does_not_matter(self):
        vs = VoterState(LinearOrder([0, 1, 2]))
        answer, _ = vs.respond(2, 1, PartialOrder(3), {0, 1, 2}, TRUTHFUL)
        assert answer == (1, 2)

    def test_ranking_never_drifts(self):
        rng = random.Random(3)
        p = LinearOrder(rng.sample(range(5), 5))
        vs = VoterState(p)
        state = CenterState(1, 5)
        pairs = [(a, b) for a in range(5) for b in range(a + 1, 5)]
        rng.shuffle(pairs)
        for a, b in pairs:
            q = state.qs[0]
            if q.holds(a, b) or q.holds(b, a):
                continue
            answer, _ = vs.respond(a, b, q, {0, 1}, TRUTHFUL)
            state.apply_response(Query(0, a, b), answer)
        assert vs.p_current == vs.p_true == p
        assert not state.qs[0].unresolved_pairs()  # complete


class TestManipulative:
    def test_toy_manipulation_adopted(self):
        vs = VoterState(LinearOrder([0, 1, 2]))
        answer, manipulated = vs.respond(0, 1, PartialOrder(3), {1, 2}, MANIPULATIVE)
        assert manipulated
        assert answer == (1, 0)
        assert vs.p_current == LinearOrder([1, 0, 2])
        assert vs.p_true == LinearOrder([0, 1, 2])

    def test_safe_query_leaves_ranking_alone(self):
        vs = VoterState(LinearOrder([0, 1, 2]))
        answer, manipulated = vs.respond(1, 2, PartialOrder(3), {1, 2}, MANIPULATIVE)
        assert not manipulated
        assert answer == (1, 2)
        assert vs.p_current == vs.p_true

    def test_search_honours_revealed_relation(self):
        # asked 1 vs 3 with possible winners {0, 2}, the voter flips to
        # 0 > 3 > 1 > 2 while nothing is revealed; once she has revealed
        # 2 over 3 no consistent flip is locally dominant and she answers truly
        p = LinearOrder([0, 1, 2, 3])
        fresh = VoterState(p)
        assert fresh.respond(1, 3, PartialOrder(4), {0, 2}, MANIPULATIVE) == ((3, 1), True)
        assert fresh.p_current == LinearOrder([0, 3, 1, 2])
        bound = VoterState(p)
        q = close({(2, 3)}, 4)
        assert bound.respond(1, 3, q, {0, 2}, MANIPULATIVE) == ((1, 3), False)
        assert bound.p_current == p

    def test_resolved_pair_rejected(self):
        vs = VoterState(LinearOrder([0, 1, 2]))
        q = close({(0, 1)}, 3)
        with pytest.raises(PreconditionViolationError):
            vs.respond(0, 1, q, {0, 1, 2}, TRUTHFUL)
        with pytest.raises(PreconditionViolationError):
            vs.respond(1, 0, q, {0, 1, 2}, MANIPULATIVE)

    def test_unknown_behavior_rejected(self):
        vs = VoterState(LinearOrder([0, 1]))
        with pytest.raises(ValueError):
            vs.respond(0, 1, PartialOrder(2), {0}, "chaotic")

    def test_answers_stay_mutually_consistent(self):
        # hammer one voter with every pair under a drifting possible-winner
        # set; a real center folds each answer into her relation and would
        # raise InconsistencyError on any contradiction.  (With arbitrary
        # non-shrinking pw sets only order preservation against the ranking
        # she held at that round is guaranteed, not against p_true.)
        rng = random.Random(11)
        for _ in range(50):
            m = rng.randint(3, 6)
            vs = VoterState(LinearOrder(rng.sample(range(m), m)))
            state = CenterState(1, m)
            pairs = [(a, b) for a in range(m) for b in range(a + 1, m)]
            rng.shuffle(pairs)
            for a, b in pairs:
                q = state.qs[0]
                if q.holds(a, b) or q.holds(b, a):
                    continue
                pw = set(rng.sample(range(m), rng.randint(1, m)))
                before = vs.p_current
                mat_before = q.mat.copy()
                answer, manipulated = vs.respond(a, b, q, pw, MANIPULATIVE)
                assert np.array_equal(q.mat, mat_before)
                state.apply_response(Query(0, a, b), answer)
                assert is_extension(vs.p_current, state.qs[0])
                if manipulated:
                    assert order_pw(vs.p_current, pw) == order_pw(before, pw)
            assert not state.qs[0].unresolved_pairs()  # complete

    def test_current_order_always_extends_mirror(self):
        rng = random.Random(13)
        vs = VoterState(LinearOrder(rng.sample(range(5), 5)))
        state = CenterState(1, 5)
        for a in range(5):
            for b in range(a + 1, 5):
                q = state.qs[0]
                if q.holds(a, b) or q.holds(b, a):
                    continue
                answer, _ = vs.respond(a, b, q, {0, 4}, MANIPULATIVE)
                state.apply_response(Query(0, a, b), answer)
                assert is_extension(vs.p_current, state.qs[0])
