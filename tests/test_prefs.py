"""Tests for rankings, closures, added preferences, swap distance and extensions."""

import hashlib
import itertools
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iterborda.oracle import random_instance
from iterborda.prefs import (
    InconsistencyError,
    LinearOrder,
    PartialOrder,
    add_preference,
    close,
    swap_distance,
)

from center_helpers import floyd_warshall, is_extension, random_relation, relation_within

RANDOM_INSTANCES_SHA256 = "8fe75e46bcd72ce65e7008c1834f856fd1bdc449a6e37026e7594f303f6adb92"

# the six-candidate example pair used throughout: c_i maps to id i-1
P = LinearOrder([1, 0, 2, 4, 3, 5])  # c2 > c1 > c3 > c5 > c4 > c6


def perm_strategy(max_m=8):
    return st.integers(2, max_m).flatmap(
        lambda m: st.permutations(list(range(m))).map(LinearOrder)
    )


class TestLinearOrder:
    def test_rank_of_inverts_ranking(self):
        for pos, c in enumerate(P.ranking):
            assert P.rank_of[c] == pos

    def test_rejects_non_permutations(self):
        with pytest.raises(ValueError):
            LinearOrder([0, 0, 1])
        with pytest.raises(ValueError):
            LinearOrder([1, 2, 3])

    def test_prefers(self):
        assert P.prefers(1, 5)
        assert not P.prefers(5, 1)


class TestClose:
    def test_empty(self):
        q = close(set(), 3)
        assert q.pairs() == set()

    def test_transitivity_forced(self):
        q = close({(0, 1), (1, 2)}, 3)
        assert q.pairs() == {(0, 1), (1, 2), (0, 2)}

    def test_direct_cycle(self):
        with pytest.raises(InconsistencyError):
            close({(0, 1), (1, 0)}, 2)

    def test_indirect_cycle(self):
        with pytest.raises(InconsistencyError):
            close({(0, 1), (1, 2), (2, 0)}, 3)

    @given(perm_strategy(6), st.randoms(use_true_random=False))
    def test_idempotent(self, p, rng):
        q = relation_within(p, rng)
        assert close(q.pairs(), p.m) == q

    def test_self_pair_raises(self):
        with pytest.raises(InconsistencyError):
            close({(0, 1), (2, 2)}, 3)

    @pytest.mark.parametrize("pair", [(-1, 0), (0, -2), (3, 0), (1, 70)])
    def test_rejects_out_of_range_ids(self, pair):
        with pytest.raises(ValueError, match=re.escape(repr(pair))) as excinfo:
            close({(0, 1), pair}, 3)
        assert excinfo.type is ValueError

    def test_numpy_ids_close_like_python_ints(self):
        pairs = {(0, 1), (1, 2)}
        ids = {(np.int64(a), np.intp(b)) for a, b in pairs}
        assert close(ids, 3) == close(pairs, 3)
        with pytest.raises(TypeError):
            close({(0, 1.0)}, 3)

    def test_matches_floyd_warshall(self):
        rng = random.Random(17)
        outcomes = set()
        for m in list(range(2, 31)) * 2 + [64, 70] * 3:
            p = LinearOrder(rng.sample(range(m), m))
            pairs = [(a, b) for a in range(m) for b in range(m) if p.prefers(a, b)]
            sampled = rng.sample(pairs, rng.randrange(0, min(len(pairs), 4 * m) + 1))
            for extra in ([], [tuple(rng.sample(range(m), 2)) for _ in range(2)]):
                raw = sampled + extra
                expected = floyd_warshall(raw, m)
                if expected is None:
                    with pytest.raises(InconsistencyError):
                        close(raw, m)
                else:
                    q = close(raw, m)
                    assert q.mat.dtype == bool and q.mat.shape == (m, m)
                    assert q.pairs() == expected
                outcomes.add(expected is None)
        assert outcomes == {False, True}

    def test_random_instances_pinned(self):
        """``random_instance`` closes its sampled pairs with ``close`` and
        draws the query pair from ``unresolved_pairs``: 2 000 draws at
        m = 2-8 and the generator's final state are pinned."""
        rng = random.Random(2024)
        digest = hashlib.sha256()
        for i in range(2000):
            p, q, pw, cj, ck = random_instance(2 + i % 7, rng)
            fields = (p.ranking, q.mat.shape, q.mat.dtype.str, q.mat.tobytes(), sorted(pw), cj, ck)
            digest.update(repr(fields).encode())
        digest.update(repr(rng.getstate()).encode())
        assert digest.hexdigest() == RANDOM_INSTANCES_SHA256


class TestAddPreference:
    def test_contradiction_detected(self):
        q = close({(0, 1), (1, 2)}, 3)
        with pytest.raises(InconsistencyError):
            add_preference(q, 2, 0)
        with pytest.raises(InconsistencyError, match="cannot precede itself"):
            add_preference(q, 1, 1)

    @given(perm_strategy(6), st.randoms(use_true_random=False))
    def test_extension_preserved_by_consistent_add(self, p, rng):
        q = relation_within(p, rng)
        assert is_extension(p, q)
        a, b = rng.sample(range(p.m), 2)
        if not p.prefers(a, b):
            a, b = b, a
        q2 = add_preference(q, a, b)
        assert is_extension(p, q2)

    def test_matches_floyd_warshall(self):
        rng = random.Random(41)
        outcomes = set()
        for m in list(range(2, 31)) * 2:
            q = random_relation(m, rng)
            for _ in range(3):
                a, b = rng.sample(range(m), 2)
                before = q.pairs()
                expected = floyd_warshall(before | {(a, b)}, m)
                if expected is None:  # b over a is committed, so a over b closes a cycle
                    with pytest.raises(InconsistencyError):
                        add_preference(q, a, b)
                else:
                    assert add_preference(q, a, b).pairs() == expected
                assert q.pairs() == before  # the input relation is left unchanged
                outcomes.add(expected is None)
        assert outcomes == {False, True}


class TestSwapDistance:
    def test_identity(self):
        assert swap_distance(P, P) == 0

    def test_adjacent_swap(self):
        assert swap_distance(LinearOrder([0, 1, 2]), LinearOrder([0, 2, 1])) == 1

    def test_full_reversal(self):
        assert swap_distance(LinearOrder([0, 1, 2, 3]), LinearOrder([3, 2, 1, 0])) == 6

    def test_rejects_other_sizes(self):
        with pytest.raises(ValueError, match="same candidates"):
            swap_distance(LinearOrder([0, 1, 2]), LinearOrder([0, 1]))

    @staticmethod
    def bubble_sort_swaps(p, p2):
        # adjacent-transposition count transforming p into p2
        seq = [p2.rank_of[c] for c in p.ranking]
        swaps = 0
        for i in range(len(seq)):
            for j in range(len(seq) - 1 - i):
                if seq[j] > seq[j + 1]:
                    seq[j], seq[j + 1] = seq[j + 1], seq[j]
                    swaps += 1
        return swaps

    @given(st.integers(2, 8), st.randoms(use_true_random=False))
    def test_matches_bubble_sort_oracle(self, m, rng):
        p = LinearOrder(rng.sample(range(m), m))
        p2 = LinearOrder(rng.sample(range(m), m))
        assert swap_distance(p, p2) == self.bubble_sort_swaps(p, p2)

    @given(st.integers(2, 8), st.randoms(use_true_random=False))
    @settings(max_examples=200)
    def test_metric_properties(self, m, rng):
        a, b, c = (LinearOrder(rng.sample(range(m), m)) for _ in range(3))
        dab = swap_distance(a, b)
        assert dab >= 0
        assert dab == swap_distance(b, a)
        assert (dab == 0) == (a == b)
        assert dab <= swap_distance(a, c) + swap_distance(c, b)


class TestIsExtension:
    def test_empty_relation_accepts_all(self):
        for ranking in itertools.permutations(range(3)):
            assert is_extension(LinearOrder(ranking), PartialOrder(3))

    def test_agreeing_pair(self):
        assert is_extension(LinearOrder([0, 1, 2]), close({(0, 1)}, 3))

    def test_disagreeing_pair(self):
        assert not is_extension(LinearOrder([1, 0, 2]), close({(0, 1)}, 3))

    def test_counts_extensions_of_chain(self):
        chain = close({(0, 1), (1, 2), (2, 3)}, 4)
        count = sum(
            is_extension(LinearOrder(r), chain)
            for r in itertools.permutations(range(4))
        )
        assert count == 1
