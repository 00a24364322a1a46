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

from center_helpers import all_closed_relations, is_extension, random_relation


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


class TestEnumerateExtensions:
    def test_filtered_permutations_in_order_with_distances(self):
        rng = random.Random(37)
        cases = [q for m in range(1, 5) for q in all_closed_relations(m)]
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
        relations = [q for m in range(2, 5) for q in all_closed_relations(m)]
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
    def test_contradicted_forced_pair_rejected(self):
        # q commits 0 over 2 by transitivity, so 2 cannot be forced over 0
        q = close({(0, 1), (1, 2)}, 3)
        with pytest.raises(InconsistencyError):
            closest_extensions(LinearOrder([0, 1, 2]), q, 2, 0)
        with pytest.raises(InconsistencyError, match="cannot precede itself"):
            closest_extensions(LinearOrder([0, 1, 2]), PartialOrder(3), 1, 1)
        with pytest.raises(ValueError, match="same candidates"):
            closest_extensions(LinearOrder([0, 1]), PartialOrder(3), 1, 0)


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
