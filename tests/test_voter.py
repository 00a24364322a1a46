"""Tests for voter agents."""

import pytest

from iterborda.manipulation import PreconditionViolationError
from iterborda.prefs import LinearOrder, PartialOrder, close
from iterborda.voter import MANIPULATIVE, TRUTHFUL, VoterState


class TestTruthful:
    def test_answers_follow_true_ranking(self):
        vs = VoterState(LinearOrder([0, 1, 2]), TRUTHFUL)
        assert vs.respond(1, 2, PartialOrder(3), {0, 1, 2}) == ((1, 2), None)

    def test_orientation_does_not_matter(self):
        vs = VoterState(LinearOrder([0, 1, 2]), TRUTHFUL)
        answer, _ = vs.respond(2, 1, PartialOrder(3), {0, 1, 2})
        assert answer == (1, 2)


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
