"""Tests for the brute-force reference machinery itself."""

import itertools
import random

import pytest

from iterborda.manipulation import (
    ManipulationOutcome,
    PreconditionViolationError,
    find_manipulation,
    is_locally_dominant,
)
from iterborda.oracle import (
    CapExceededError,
    _placement_steps,
    closest_extensions,
    enumerate_extensions,
    oracle_manipulation,
    random_instance,
)
from iterborda.prefs import (
    InconsistencyError,
    LinearOrder,
    PartialOrder,
    add_preference,
    close,
    swap_distance,
)

from center_helpers import is_extension, linear_extensions, random_relation, unresolved_pairs


def _permutations_with_ranks(m):
    """Every ranking of 0..m-1 in ``itertools.permutations`` order, with the
    rank tuple of each."""
    return [(perm, LinearOrder(perm).rank_of) for perm in itertools.permutations(range(m))]


def _reference_extensions(q, p, perms):
    """The rankings in ``perms`` that extend ``q``, in order, each with its
    swap distance from ``p``."""
    pairs = q.pairs()
    return [
        (perm, swap_distance(p, LinearOrder(perm)))
        for perm, rank in perms
        if all(rank[a] < rank[b] for a, b in pairs)
    ]


def _all_closed_relations(m):
    """Every transitively closed strict partial order over m candidates."""
    cells = [(a, b) for a in range(m) for b in range(m) if a != b]
    out = []
    for mask in range(1 << len(cells)):
        pairs = {cells[i] for i in range(len(cells)) if mask >> i & 1}
        if any((b, a) in pairs for a, b in pairs):
            continue
        if all((a, d) in pairs for a, b in pairs for c, d in pairs if b == c):
            out.append(close(pairs, m))
    return out


class TestEnumerateExtensions:
    def test_empty_relation_gives_all_permutations(self):
        p = LinearOrder([2, 0, 1])
        exts = enumerate_extensions(PartialOrder(3), p)
        assert [r for r, _ in exts] == list(itertools.permutations(range(3)))
        assert [d for _, d in exts] == [swap_distance(p, LinearOrder(r)) for r, _ in exts]

    def test_complete_chain_gives_one(self):
        chain = close({(0, 1), (1, 2), (2, 3)}, 4)
        exts = enumerate_extensions(chain, LinearOrder([3, 2, 1, 0]))
        assert exts == [((0, 1, 2, 3), 6)]

    def test_single_pair(self):
        exts = linear_extensions(close({(0, 1)}, 3))
        assert len(exts) == 3
        assert all(e.prefers(0, 1) for e in exts)

    def test_every_member_extends_the_relation(self):
        rng = random.Random(41)
        for _ in range(50):
            m = rng.randint(2, 5)
            q = random_relation(m, rng)
            exts = linear_extensions(q)
            assert len(set(exts)) == len(exts)
            assert all(is_extension(e, q) for e in exts)

    def test_filtered_permutations_in_order_with_distances(self):
        rng = random.Random(37)
        cases = [q for m in range(1, 5) for q in _all_closed_relations(m)]
        assert len(cases) == 1 + 3 + 19 + 219  # labelled posets on 1..4 points
        cases += [random_relation(rng.randint(5, 6), rng) for _ in range(200)]
        cases += [random_relation(7, rng) for _ in range(20)]
        perms = {m: _permutations_with_ranks(m) for m in range(1, 8)}
        for q in cases:
            p = LinearOrder(rng.sample(range(q.m), q.m))
            assert enumerate_extensions(q, p) == _reference_extensions(q, p, perms[q.m]), q

    def test_cap_enforced(self):
        with pytest.raises(CapExceededError):
            enumerate_extensions(PartialOrder(9), LinearOrder(range(9)))


class TestPlacementSteps:
    def test_forced_pair_matches_added_preference(self):
        # folding "ck over cj" into the masks as one bit keeps the walk's
        # output: the extensions of q that rank ck over cj, which are those of
        # add_preference(q, ck, cj), at minimal distance, for open and
        # already-committed pairs.  Each relation is enumerated once and
        # filtered per pair, which keeps the m = 8 relations cheap.
        rng = random.Random(67)
        relations = [q for m in range(2, 5) for q in _all_closed_relations(m)]
        relations += [random_instance(m, rng)[1] for m in range(5, 9) for _ in range(50)]
        checked = 0
        for q in relations:
            p = LinearOrder(rng.sample(range(q.m), q.m))
            exts = [(r, LinearOrder(r).rank_of, d) for r, d in enumerate_extensions(q, p)]
            for ck, cj in itertools.permutations(range(q.m), 2):
                if q.holds(cj, ck):
                    continue
                forced = [(r, d) for r, rank, d in exts if rank[ck] < rank[cj]]
                best = min(d for _, d in forced)
                expected = [LinearOrder(r) for r, d in forced if d == best]
                assert closest_extensions(p, q, ck, cj) == expected, (q, ck, cj)
                checked += 1
        assert checked > 5000

    def test_full_columns_at_cap(self):
        # at m = 8 a column whose candidate sits below all others fills its byte
        chain = close({(c, c + 1) for c in range(7)}, 8)
        steps = _placement_steps(chain, LinearOrder(range(8)))
        assert [preds for _, _, preds, _ in steps] == [(1 << c) - 1 for c in range(8)]


class TestClosestExtensions:
    def test_toy_example_unique_swap(self):
        members = closest_extensions(LinearOrder([0, 1, 2]), PartialOrder(3), 1, 0)
        assert members == [LinearOrder([1, 0, 2])]

    def test_adjacent_forced_pair_is_single_transposition(self):
        p = LinearOrder([0, 1, 2, 3])
        members = closest_extensions(p, PartialOrder(4), 2, 1)
        assert members == [LinearOrder([0, 2, 1, 3])]

    def test_members_have_equal_minimal_distance(self):
        # the pruned walk returns exactly the exhaustive walk's extensions at
        # minimal distance, in the same (lexicographic) order
        rng = random.Random(43)
        cases = []
        for q in (q for m in range(2, 5) for q in _all_closed_relations(m)):
            extensions = linear_extensions(q)
            for a, b in unresolved_pairs(q):
                p = rng.choice(extensions)
                cj, ck = (a, b) if p.prefers(a, b) else (b, a)
                cases.append((p, q, cj, ck))
        assert len(cases) > 500
        for _ in range(200):
            p, q, pw, cj, ck = random_instance(rng.randint(5, 8), rng)
            cases.append((p, q, cj, ck))
        for p, q, cj, ck in cases:
            exts = enumerate_extensions(add_preference(q, ck, cj), p)
            min_d = min(d for _, d in exts)
            expected = [LinearOrder(r) for r, d in exts if d == min_d]
            assert closest_extensions(p, q, ck, cj) == expected, (p, q, cj, ck)

    def test_contradicted_forced_pair_rejected(self):
        # q commits 0 over 2 by transitivity, so 2 cannot be forced over 0
        q = close({(0, 1), (1, 2)}, 3)
        with pytest.raises(InconsistencyError):
            closest_extensions(LinearOrder([0, 1, 2]), q, 2, 0)
        with pytest.raises(InconsistencyError, match="cannot precede itself"):
            closest_extensions(LinearOrder([0, 1, 2]), PartialOrder(3), 1, 1)
        with pytest.raises(ValueError, match="same candidates"):
            closest_extensions(LinearOrder([0, 1]), PartialOrder(3), 1, 0)

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

    def test_unoriented_query_rejected(self):
        # the voter ranks 0 above 2, so the query must be asked as (0, 2)
        args = (LinearOrder([0, 1, 2]), PartialOrder(3), {1, 2}, 2, 0)
        for search in (find_manipulation, oracle_manipulation):
            with pytest.raises(PreconditionViolationError, match="does not rank 2 above 0"):
                search(*args)

    def test_matches_permutation_reference(self):
        # of the locally dominant consistent rewrites at minimal swap distance,
        # the one that ranks cj lowest
        rng = random.Random(61)
        perms = {m: _permutations_with_ranks(m) for m in range(2, 8)}
        for i in range(2050):
            m = rng.randint(2, 6) if i < 2000 else 7
            p, q, pw, cj, ck = random_instance(m, rng)
            rewrites = _reference_extensions(add_preference(q, ck, cj), p, perms[m])
            best = min(d for _, d in rewrites)
            pw_ordered = sorted(pw, key=p.rank_of.__getitem__)
            dominant = [
                LinearOrder(r)
                for r, d in rewrites
                if d == best and is_locally_dominant(LinearOrder(r), p, pw_ordered)
            ]
            expected = (
                ManipulationOutcome(True, max(dominant, key=lambda r: r.rank_of[cj]), best)
                if dominant
                else ManipulationOutcome(False, p, 0)
            )
            assert oracle_manipulation(p, q, pw, cj, ck) == expected, (p, q, pw, cj, ck)

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
