"""Tests for Borda scoring, score bounds, pairwise extremes, PW/NW."""

import random

import numpy as np
import pytest

from iterborda.borda import (
    borda_winner,
    necessary_winner_from_total,
    pair_diff_matrix,
    possible_winners_from_total,
    score_bounds_vectors,
)
from iterborda.prefs import LinearOrder, close, unresolved_pairs

from center_helpers import (
    extension_scores,
    joint_winner_set,
    necessary_winner,
    pairs,
    possible_winners,
    random_relation,
    threshold_winners,
)


def lin(*ranking):
    return LinearOrder(ranking)


def max_pair_diff(q, c, c2):
    """Reference: exact maximum of score(c) - score(c2) over the linear
    extensions of ``q``, one pair at a time.

    When c2 is committed above c, every candidate wedged between them counts
    against c and the best case is -(1 + #wedged).  Otherwise c can be placed
    directly above c2 and every candidate free to sit between them adds one.
    """
    if c == c2:
        raise ValueError("candidates must differ")
    if q[c2, c]:
        return -(1 + int(np.count_nonzero(q[c2, :] & q[:, c])))
    free = ~q[:, c] & ~q[c2, :]
    free[c] = free[c2] = False
    return 1 + int(np.count_nonzero(free))


def min_pair_diff(q, c, c2):
    return -max_pair_diff(q, c2, c)


class TestBordaWinner:
    def test_single_voter(self):
        assert borda_winner([lin(0, 1, 2)]) == 0

    def test_three_way_tie_breaks_lexicographically(self):
        # [0,1,2] and [2,1,0]: every candidate totals 4
        assert borda_winner([lin(0, 1, 2), lin(2, 1, 0)]) == 0

    def test_unanimous(self):
        assert borda_winner([lin(1, 0)] * 3) == 1

    def test_empty_profile_rejected(self):
        with pytest.raises(ValueError):
            borda_winner([])


class TestScoreBounds:
    def test_fully_unknown(self):
        lo, hi = score_bounds_vectors(close((), 5))
        assert lo.tolist() == [1] * 5
        assert hi.tolist() == [5] * 5

    def test_complete_order_top_candidate(self):
        # the complete ranking 2 > 0 > 1 > 3 pins every score
        q = close({(2, 0), (0, 1), (2, 1), (2, 3), (0, 3), (1, 3)}, 4)
        lo, hi = score_bounds_vectors(q)
        assert lo.tolist() == hi.tolist() == [3, 2, 4, 1]

    def test_two_forced_below(self):
        q = close({(0, 3), (0, 4)}, 6)
        lo, hi = score_bounds_vectors(q)
        assert (lo[0], hi[0]) == (3, 6)
        assert (lo[3], hi[3]) == (1, 5)

    def test_vectors_match_boolean_counts(self):
        rng = random.Random(31)
        for m in list(range(2, 31)) * 3:
            q = random_relation(m, rng)
            lo, hi = score_bounds_vectors(q)
            assert lo.tolist() == (1 + q.sum(axis=1)).tolist()
            assert hi.tolist() == (m - q.sum(axis=0)).tolist()

    def test_bounds_always_ordered_and_in_range(self):
        rng = random.Random(11)
        for _ in range(100):
            m = rng.randint(2, 6)
            q = random_relation(m, rng)
            lo, hi = score_bounds_vectors(q)
            assert ((1 <= lo) & (lo <= hi) & (hi <= m)).all()
            # tight: each bound is reached by some linear extension
            scores = extension_scores(q)
            assert (scores.min(axis=0) == lo).all()
            assert (scores.max(axis=0) == hi).all()


class TestPairDiffs:
    def test_empty_relation(self):
        q = close((), 4)
        assert max_pair_diff(q, 0, 1) == 3
        assert min_pair_diff(q, 0, 1) == -3

    def test_forced_chain(self):
        # chain c2 > x > c with ids 0 > 1 > 2: unique extension scores 3,2,1
        q = close({(0, 1), (1, 2)}, 3)
        assert max_pair_diff(q, 2, 0) == -2
        assert min_pair_diff(q, 2, 0) == -2

    def test_same_candidate_rejected(self):
        with pytest.raises(ValueError):
            max_pair_diff(close((), 3), 1, 1)

    def test_matches_brute_force_on_random_relations(self):
        rng = random.Random(5)
        for _ in range(150):
            m = rng.randint(2, 6)
            q = random_relation(m, rng)
            scores = extension_scores(q)
            for c in range(m):
                for c2 in range(m):
                    if c == c2:
                        continue
                    diffs = scores[:, c] - scores[:, c2]
                    assert max_pair_diff(q, c, c2) == diffs.max()
                    assert min_pair_diff(q, c, c2) == diffs.min()

    def test_matrix_agrees_with_scalar(self):
        rng = random.Random(6)
        # small relations, every size up to the benchmark's 30, then 10 and 30
        sizes = [rng.randint(2, 6) for _ in range(100)] + list(range(2, 31))
        sizes += [10] * 12 + [30] * 4
        for m in sizes:
            q = random_relation(m, rng)
            d = pair_diff_matrix(q, score_bounds_vectors(q))
            expected = [[0 if c == c2 else max_pair_diff(q, c, c2) for c2 in range(m)]
                        for c in range(m)]
            assert d.tolist() == expected


class TestWinnersFromTotal:
    def test_agree_with_threshold_reference(self):
        rng = random.Random(29)
        np_rng = np.random.default_rng(29)
        for _ in range(300):
            m = rng.choice([2, 3, 4, 5, 7, 10, 30])
            if rng.random() < 0.5:
                qs = [random_relation(m, rng) for _ in range(rng.randint(1, 4))]
                total = sum(
                    pair_diff_matrix(q, score_bounds_vectors(q)).astype(np.int64) for q in qs
                )
            else:
                # arbitrary integer matrices, dense with ties at 0 and +-1
                total = np_rng.integers(-2, 3, (m, m))
                np.fill_diagonal(total, 0)
            mask = possible_winners_from_total(total)
            pw, winner = threshold_winners(total)
            assert frozenset(np.flatnonzero(mask).tolist()) == pw
            assert necessary_winner_from_total(total) == winner


class TestPossibleWinners:
    def test_everything_open(self):
        assert possible_winners([close((), 3)]) == {0, 1, 2}

    def test_complete_information(self):
        orders = [lin(0, 1, 2), lin(2, 1, 0), lin(1, 2, 0)]
        qs = [close({(a, b) for a in range(3) for b in range(3) if o.prefers(a, b)}, 3)
              for o in orders]
        assert possible_winners(qs) == {borda_winner(orders)}

    def test_partial_instance_vs_enumeration(self):
        # one voter pinned to [0,1,2], the other only knows 2 > 1
        qs = [close({(0, 1), (1, 2)}, 3), close({(2, 1)}, 3)]
        exact = joint_winner_set(qs)
        assert exact == {0}
        assert possible_winners(qs) == {0}  # relaxation happens to be tight here

    def test_superset_of_exact_set(self):
        rng = random.Random(13)
        tight = 0
        total = 0
        for _ in range(120):
            m = rng.randint(2, 4)
            n = rng.randint(1, 3)
            qs = [random_relation(m, rng) for _ in range(n)]
            exact = joint_winner_set(qs)
            approx = possible_winners(qs)
            assert exact <= approx
            total += 1
            tight += exact == approx
        assert tight > total * 0.5  # slack exists but should be uncommon

    def test_monotone_under_new_information(self):
        rng = random.Random(17)
        for _ in range(60):
            m = rng.randint(2, 5)
            n = rng.randint(1, 3)
            orders = [LinearOrder(rng.sample(range(m), m)) for _ in range(n)]
            qs = [close((), m) for _ in range(n)]
            previous = possible_winners(qs)
            for _ in range(6):
                v = rng.randrange(n)
                open_pairs = unresolved_pairs(qs[v])
                if not open_pairs:
                    continue
                a, b = rng.choice(open_pairs)
                if not orders[v].prefers(a, b):
                    a, b = b, a
                qs[v] = close(pairs(qs[v]) | {(a, b)}, m)
                current = possible_winners(qs)
                assert current <= previous
                previous = current


class TestNecessaryWinner:
    def test_complete_information(self):
        orders = [lin(2, 0, 1), lin(0, 2, 1)]
        qs = [close({(a, b) for a in range(3) for b in range(3) if o.prefers(a, b)}, 3)
              for o in orders]
        assert necessary_winner(qs) == borda_winner(orders)

    def test_open_election_has_none(self):
        assert necessary_winner([close((), 3), close((), 3)]) is None

    def test_agrees_with_joint_enumeration(self):
        rng = random.Random(19)
        for _ in range(150):
            m = rng.randint(2, 4)
            n = rng.randint(1, 3)
            qs = [random_relation(m, rng) for _ in range(n)]
            exact = joint_winner_set(qs)
            expected = next(iter(exact)) if len(exact) == 1 else None
            assert necessary_winner(qs) == expected

    def test_member_of_possible_winners(self):
        # the exact test names a winner exactly when one possible winner is left
        rng = random.Random(23)
        lone = 0
        for _ in range(100):
            m = rng.randint(2, 10)
            qs = [random_relation(m, rng) for _ in range(rng.randint(1, 3))]
            pw = possible_winners(qs)
            assert necessary_winner(qs) == (next(iter(pw)) if len(pw) == 1 else None)
            lone += len(pw) == 1
        assert lone > 10
