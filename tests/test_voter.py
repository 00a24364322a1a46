"""Tests for voter agents."""

import random

import numpy as np
import pytest

from iterborda.center import CenterState, Query
from iterborda.manipulation import PreconditionViolationError, order_pw
from iterborda.prefs import LinearOrder, PartialOrder, close, unresolved_pairs
from iterborda.voter import MANIPULATIVE, TRUTHFUL, VoterState

from center_helpers import is_extension


class TestTruthful:
    def test_answers_follow_true_ranking(self):
        vs = VoterState(LinearOrder([0, 1, 2]), TRUTHFUL)
        assert vs.respond(1, 2, PartialOrder(3), {0, 1, 2}) == ((1, 2), None)

    def test_orientation_does_not_matter(self):
        vs = VoterState(LinearOrder([0, 1, 2]), TRUTHFUL)
        answer, _ = vs.respond(2, 1, PartialOrder(3), {0, 1, 2})
        assert answer == (1, 2)

    def test_ranking_never_drifts(self):
        rng = random.Random(3)
        p = LinearOrder(rng.sample(range(5), 5))
        vs = VoterState(p, TRUTHFUL)
        state = CenterState(1, 5)
        pairs = [(a, b) for a in range(5) for b in range(a + 1, 5)]
        rng.shuffle(pairs)
        for a, b in pairs:
            q = state.qs[0]
            if q.holds(a, b) or q.holds(b, a):
                continue
            answer, adopted = vs.respond(a, b, q, {0, 1})
            assert adopted is None
            state.apply_response(Query(0, a, b), answer)
        assert vs.p_current == p
        assert not unresolved_pairs(state.qs[0])  # complete


class TestManipulative:
    def test_toy_manipulation_adopted(self):
        vs = VoterState(LinearOrder([0, 1, 2]), MANIPULATIVE)
        answer, adopted = vs.respond(0, 1, PartialOrder(3), {1, 2})
        assert answer == (1, 0)
        assert adopted == vs.p_current == LinearOrder([1, 0, 2])

    def test_safe_query_leaves_ranking_alone(self):
        p = LinearOrder([0, 1, 2])
        vs = VoterState(p, MANIPULATIVE)
        assert vs.respond(1, 2, PartialOrder(3), {1, 2}) == ((1, 2), None)
        assert vs.p_current == p

    def test_search_honours_revealed_relation(self):
        # asked 1 vs 3 with possible winners {0, 2}, the voter flips to
        # 0 > 3 > 1 > 2 while nothing is revealed; once she has revealed
        # 2 over 3 no consistent flip is locally dominant and she answers truly
        p = LinearOrder([0, 1, 2, 3])
        flipped = LinearOrder([0, 3, 1, 2])
        fresh = VoterState(p, MANIPULATIVE)
        assert fresh.respond(1, 3, PartialOrder(4), {0, 2}) == ((3, 1), flipped)
        assert fresh.p_current == flipped
        bound = VoterState(p, MANIPULATIVE)
        q = close({(2, 3)}, 4)
        assert bound.respond(1, 3, q, {0, 2}) == ((1, 3), None)
        assert bound.p_current == p

    def test_resolved_pair_rejected(self):
        q = close({(0, 1)}, 3)
        for behavior, (cj, ck) in ((TRUTHFUL, (0, 1)), (MANIPULATIVE, (1, 0))):
            vs = VoterState(LinearOrder([0, 1, 2]), behavior)
            with pytest.raises(PreconditionViolationError):
                vs.respond(cj, ck, q, {0, 1, 2})

    def test_unknown_behavior_rejected(self):
        with pytest.raises(ValueError, match="unknown behavior 'chaotic'"):
            VoterState(LinearOrder([0, 1]), "chaotic")

    def test_answers_stay_mutually_consistent(self):
        # hammer one voter with every pair under a drifting possible-winner
        # set; a real center folds each answer into her relation and would
        # raise InconsistencyError on any contradiction.  (With arbitrary
        # non-shrinking pw sets only order preservation against the ranking
        # she held at that round is guaranteed, not against her true one.)
        rng = random.Random(11)
        for _ in range(50):
            m = rng.randint(3, 6)
            vs = VoterState(LinearOrder(rng.sample(range(m), m)), MANIPULATIVE)
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
                answer, adopted = vs.respond(a, b, q, pw)
                assert np.array_equal(q.mat, mat_before)
                state.apply_response(Query(0, a, b), answer)
                assert is_extension(vs.p_current, state.qs[0])
                if adopted is not None:
                    assert adopted == vs.p_current
                    assert order_pw(adopted, pw) == order_pw(before, pw)
            assert not unresolved_pairs(state.qs[0])  # complete

    def test_current_order_always_extends_mirror(self):
        rng = random.Random(13)
        vs = VoterState(LinearOrder(rng.sample(range(5), 5)), MANIPULATIVE)
        state = CenterState(1, 5)
        for a in range(5):
            for b in range(a + 1, 5):
                q = state.qs[0]
                if q.holds(a, b) or q.holds(b, a):
                    continue
                answer, _ = vs.respond(a, b, q, {0, 4})
                state.apply_response(Query(0, a, b), answer)
                assert is_extension(vs.p_current, state.qs[0])
