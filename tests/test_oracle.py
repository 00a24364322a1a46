"""Tests for the brute-force reference machinery itself."""

import math
import random

import pytest

from iterborda.manipulation import PreconditionViolationError
from iterborda.oracle import (
    CapExceededError,
    closest_extensions,
    enumerate_extensions,
    oracle_manipulation,
    random_instance,
)
from iterborda.prefs import (
    LinearOrder,
    PartialOrder,
    add_preference,
    close,
    is_extension,
    swap_distance,
)


class TestEnumerateExtensions:
    def test_empty_relation_gives_all_permutations(self):
        exts = enumerate_extensions(PartialOrder(3))
        assert len(exts) == math.factorial(3)
        assert len(set(exts)) == len(exts)

    def test_complete_chain_gives_one(self):
        chain = close({(0, 1), (1, 2), (2, 3)}, 4)
        exts = enumerate_extensions(chain)
        assert exts == [LinearOrder([0, 1, 2, 3])]

    def test_single_pair(self):
        exts = enumerate_extensions(close({(0, 1)}, 3))
        assert len(exts) == 3
        assert all(e.prefers(0, 1) for e in exts)

    def test_every_member_extends_the_relation(self):
        rng = random.Random(41)
        for _ in range(50):
            m = rng.randint(2, 5)
            q, _ = _random_relation_with_order(m, rng)
            exts = enumerate_extensions(q)
            assert len(set(exts)) == len(exts)
            assert all(is_extension(e, q) for e in exts)

    def test_cap_enforced(self):
        with pytest.raises(CapExceededError):
            enumerate_extensions(PartialOrder(9))
        with pytest.raises(CapExceededError):
            enumerate_extensions(PartialOrder(5), cap=4)


def _random_relation_with_order(m, rng):
    p = LinearOrder(rng.sample(range(m), m))
    pairs = [(a, b) for a in range(m) for b in range(m) if p.prefers(a, b)]
    q = close(rng.sample(pairs, rng.randrange(len(pairs) + 1)), m)
    return q, p


class TestClosestExtensions:
    def test_toy_example_unique_swap(self):
        members = closest_extensions(LinearOrder([0, 1, 2]), PartialOrder(3), 1, 0)
        assert members == [LinearOrder([1, 0, 2])]

    def test_adjacent_forced_pair_is_single_transposition(self):
        p = LinearOrder([0, 1, 2, 3])
        members = closest_extensions(p, PartialOrder(4), 2, 1)
        assert members == [LinearOrder([0, 2, 1, 3])]

    def test_members_have_equal_minimal_distance(self):
        rng = random.Random(43)
        for _ in range(200):
            m = rng.randint(3, 5)
            p, q, pw, cj, ck = random_instance(m, rng)
            members = closest_extensions(p, q, ck, cj)
            forced = add_preference(q, ck, cj)
            dists = {swap_distance(p, e) for e in members}
            assert len(dists) == 1
            best = dists.pop()
            # no consistent extension sits closer
            assert all(
                swap_distance(p, e) >= best for e in enumerate_extensions(forced)
            )
            assert all(is_extension(e, forced) for e in members)

    def test_forced_pair_ends_up_adjacent(self):
        rng = random.Random(47)
        for _ in range(300):
            m = rng.randint(3, 6)
            p, q, pw, cj, ck = random_instance(m, rng)
            for member in closest_extensions(p, q, ck, cj):
                assert member.rank_of[cj] == member.rank_of[ck] + 1

    def test_prefix_and_suffix_survive(self):
        # candidates strictly above cj / strictly below ck never move
        rng = random.Random(53)
        for _ in range(300):
            p, q, pw, cj, ck = random_instance(5, rng)
            top = p.ranking[: p.rank_of[cj]]
            bottom = p.ranking[p.rank_of[ck] + 1 :]
            for member in closest_extensions(p, q, ck, cj):
                assert member.ranking[: len(top)] == top
                assert member.ranking[p.rank_of[ck] + 1 :] == bottom


class TestOracleManipulation:
    def test_toy_example(self):
        out = oracle_manipulation(LinearOrder([0, 1, 2]), PartialOrder(3), {1, 2}, 0, 1)
        assert out.changed
        assert out.new_order == LinearOrder([1, 0, 2])
        assert out.distance == 1

    def test_safe_query_unchanged(self):
        out = oracle_manipulation(LinearOrder([0, 1, 2]), PartialOrder(3), {1, 2}, 1, 2)
        assert not out.changed

    def test_resolved_pair_rejected(self):
        q = close({(0, 1)}, 3)
        for cj, ck in ((0, 1), (1, 0)):
            with pytest.raises(PreconditionViolationError):
                oracle_manipulation(LinearOrder([0, 1, 2]), q, {1, 2}, cj, ck)

    def test_cap_propagates(self):
        with pytest.raises(CapExceededError):
            oracle_manipulation(
                LinearOrder(range(9)), PartialOrder(9), {0, 1}, 0, 1
            )


class TestRandomInstance:
    def test_common_givens_hold(self):
        rng = random.Random(59)
        for _ in range(500):
            m = rng.randint(2, 6)
            p, q, pw, cj, ck = random_instance(m, rng)
            assert is_extension(p, q)
            assert p.prefers(cj, ck)
            assert not q.holds(cj, ck) and not q.holds(ck, cj)
            assert pw and pw <= set(range(m))
