"""Tests for local dominance, the feasibility precheck, the rewrite search,
and its rewrites against exact dominance over every completion."""

import itertools
import random

import numpy as np
import pytest

from iterborda.center import POLICIES, CenterState, run_election
from iterborda.experiment import derive_seed
from iterborda.manipulation import (
    ManipulationOutcome,
    PreconditionViolationError,
    find_manipulation,
    is_locally_dominant,
    order_pw,
    precheck,
)
from iterborda.oracle import oracle_manipulation, random_instance
from iterborda.prefs import (
    LinearOrder,
    add_preference,
    close,
    swap_distance,
    unresolved_pairs,
)
from iterborda.voter import MANIPULATIVE

from center_helpers import completion_scores, is_extension


def reference_precheck(p, pw_ordered, cj, ck):
    """Three-case form of ``precheck``: cj above the span and ck below it,
    or one of them outside the span and the other inside it."""
    pw_top, pw_bottom = pw_ordered[0], pw_ordered[-1]
    cj_above = p.prefers(cj, pw_top)
    ck_below = p.prefers(pw_bottom, ck)
    if cj_above and ck_below:
        return True
    in_span = lambda c: p.rank_of[pw_top] <= p.rank_of[c] <= p.rank_of[pw_bottom]
    if cj_above and in_span(ck):
        return True
    if ck_below and in_span(cj):
        return True
    return False


def reference_find_manipulation(p, q, pw, cj, ck):
    """Pivot-by-pivot form of ``find_manipulation``: builds every pivot's
    rewrite as a ranking and measures it with ``swap_distance``, O(m^3) a call."""
    if q.item(cj, ck) or q.item(ck, cj):
        raise PreconditionViolationError(f"queried pair ({cj}, {ck}) is already committed")
    if not p.prefers(cj, ck):
        raise PreconditionViolationError(f"voter does not rank {cj} above {ck}")
    pw_ordered = order_pw(p, pw)
    if not reference_precheck(p, pw_ordered, cj, ck):
        return ManipulationOutcome(False, p, 0)

    committed_below_cj = {int(c) for c in np.flatnonzero(q[cj])} | {cj}
    committed_above_ck = {int(c) for c in np.flatnonzero(q[:, ck])} | {ck}

    d_abs = None
    d_loc = None
    p_loc = None
    # pivot positions from ck upward to cj, both inclusive
    for pivot_rank in range(p.rank_of[ck], p.rank_of[cj] - 1, -1):
        top_keep, pull_above, push_below, tail_keep = [], [], [], []
        for c in p.ranking:
            if c == cj or c == ck:
                continue
            if p.rank_of[c] < pivot_rank:
                if c in committed_below_cj:
                    push_below.append(c)
                else:
                    top_keep.append(c)
            else:
                if c in committed_above_ck:
                    pull_above.append(c)
                else:
                    tail_keep.append(c)
        candidate = LinearOrder(top_keep + pull_above + [ck, cj] + push_below + tail_keep)
        d = swap_distance(p, candidate)
        if d_abs is None or d < d_abs:
            d_abs = d
        if (d_loc is None or d < d_loc) and is_locally_dominant(candidate, p, pw_ordered):
            d_loc = d
            p_loc = candidate

    if p_loc is not None and d_loc <= d_abs:
        return ManipulationOutcome(True, p_loc, d_loc)
    return ManipulationOutcome(False, p, 0)


def random_case(rng, m):
    """A random (p, q, pw, cj, ck) whose relation ``q`` has a random density,
    from nearly empty to nearly complete; None when ``q`` left no pair open."""
    p = LinearOrder(rng.sample(range(m), m))
    density = rng.random() ** 2
    pairs = [(a, b) for a, b in itertools.combinations(p.ranking, 2) if rng.random() < density]
    q = close(pairs, m)
    open_pairs = unresolved_pairs(q)
    if not open_pairs:
        return None
    cj, ck = sorted(rng.choice(open_pairs), key=p.rank_of.__getitem__)
    pw = set(rng.sample(range(m), rng.randint(1, m)))
    return p, q, pw, cj, ck


# toy election from the walk-through: voter ranks c1 > c2 > c3 (ids 0 > 1 > 2),
# possible winners are {c2, c3}, and the query asks c1 vs c2
TOY_P = LinearOrder([0, 1, 2])
TOY_PW = {1, 2}


class TestOrderPw:
    def test_orders_by_ranking(self):
        assert order_pw(LinearOrder([0, 1, 2]), {1, 2}) == (1, 2)
        assert order_pw(LinearOrder([2, 0, 1]), {0, 1, 2}) == (2, 0, 1)

    def test_singleton(self):
        assert order_pw(LinearOrder([2, 0, 1]), {1}) == (1,)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            order_pw(TOY_P, set())


class TestIsLocallyDominant:
    def test_interval_growth_dominates(self):
        pw = order_pw(TOY_P, TOY_PW)
        assert is_locally_dominant(LinearOrder([1, 0, 2]), TOY_P, pw)

    def test_identity_never_dominates(self):
        pw = order_pw(TOY_P, TOY_PW)
        assert not is_locally_dominant(TOY_P, TOY_P, pw)

    def test_no_growth_fails(self):
        p = LinearOrder([0, 1, 2, 3])
        pw = order_pw(p, {0, 3})
        assert not is_locally_dominant(LinearOrder([0, 2, 1, 3]), p, pw)

    def test_reordered_winners_fail(self):
        p = LinearOrder([0, 1, 2])
        pw = order_pw(p, {0, 1})
        assert not is_locally_dominant(LinearOrder([1, 2, 0]), p, pw)

    def test_shrunk_interval_fails(self):
        p = LinearOrder([0, 1, 2, 3])
        pw = order_pw(p, {0, 2, 3})  # gaps: [0..2] size 3, [2..3] size 2
        # moving 1 below 3 widens [2..3] but shrinks [0..2]
        assert not is_locally_dominant(LinearOrder([0, 2, 3, 1]), p, pw)

    def test_singleton_pw_admits_no_dominance(self):
        assert not is_locally_dominant(LinearOrder([1, 0, 2]), TOY_P, (2,))


class TestPrecheck:
    def test_matches_reference_exhaustively(self):
        # every possible-winner set and ordered query pair, both orientations,
        # under every ranking for m <= 5 and three for m = 6 (precheck reads
        # ranks only, so any one ranking already covers every configuration)
        for m in range(2, 7):
            if m <= 5:
                rankings = itertools.permutations(range(m))
            else:
                rankings = [range(m), reversed(range(m)), (3, 0, 5, 1, 4, 2)]
            for ranking in rankings:
                p = LinearOrder(ranking)
                for size in range(1, m + 1):
                    for pw in itertools.combinations(range(m), size):
                        ordered = order_pw(p, pw)
                        top, bottom = ordered[0], ordered[-1]
                        for cj, ck in itertools.permutations(range(m), 2):
                            assert precheck(p, top, bottom, cj, ck) == reference_precheck(
                                p, ordered, cj, ck
                            ), (p, pw, cj, ck)


class TestFindManipulation:
    def test_toy_example(self):
        out = find_manipulation(TOY_P, close((), 3), TOY_PW, 0, 1)
        assert out == ManipulationOutcome(True, LinearOrder([1, 0, 2]), 1)

    def test_safe_query_unchanged(self):
        out = find_manipulation(TOY_P, close((), 3), TOY_PW, 1, 2)
        assert not out.changed
        assert out.new_order == TOY_P
        assert out.distance == 0

    def test_failed_precheck_unchanged(self):
        p = LinearOrder([0, 1, 2, 3])
        out = find_manipulation(p, close((), 4), {0, 3}, 1, 2)
        assert not out.changed

    def test_committed_pair_rejected(self):
        q = close({(0, 1)}, 3)
        with pytest.raises(PreconditionViolationError):
            find_manipulation(TOY_P, q, TOY_PW, 0, 1)
        with pytest.raises(PreconditionViolationError):
            find_manipulation(LinearOrder([1, 0, 2]), q, TOY_PW, 1, 0)

    def test_wrong_orientation_rejected(self):
        with pytest.raises(PreconditionViolationError):
            find_manipulation(TOY_P, close((), 3), TOY_PW, 2, 0)
        with pytest.raises(ValueError, match="possible-winner set must be nonempty"):
            find_manipulation(TOY_P, close((), 3), set(), 0, 2)

    def test_commitments_shape_the_rewrite(self):
        # 1 is committed above 2: pushing 0 below 1 must keep 1 above 2
        p = LinearOrder([0, 1, 2, 3])
        q = close({(1, 2)}, 4)
        out = find_manipulation(p, q, {1, 3}, 0, 2)
        if out.changed:
            assert is_extension(out.new_order, add_preference(q, 2, 0))

    def test_changed_output_contract(self):
        rng = random.Random(31)
        changed_seen = 0
        for _ in range(800):
            m = rng.randint(3, 6)
            p, q, pw, cj, ck = random_instance(m, rng)
            out = find_manipulation(p, q, pw, cj, ck)
            if not out.changed:
                assert out.new_order == p and out.distance == 0
                continue
            changed_seen += 1
            forced = add_preference(q, ck, cj)
            assert out.new_order.prefers(ck, cj)
            assert is_extension(out.new_order, forced)
            pw_ordered = order_pw(p, pw)
            assert is_locally_dominant(out.new_order, p, pw_ordered)
            # possible winners keep the voter's original relative order
            assert order_pw(out.new_order, pw) == pw_ordered
            assert precheck(p, pw_ordered[0], pw_ordered[-1], cj, ck)
        assert changed_seen > 20  # the sweep must actually exercise rewrites

    @pytest.mark.parametrize(
        "seed, m_low, m_high, instances",
        [(0, m, m, 2000) for m in range(2, 7)]
        + [(0, 7, 7, 300), (0, 8, 8, 1000), (37, 3, 5, 1500)],
        ids=[f"m{m}" for m in range(2, 9)] + ["m3-5-seed37"],
    )
    def test_agrees_with_oracle_on_random_instances(self, seed, m_low, m_high, instances):
        # a row with one candidate count draws no m, so it checks the first
        # draws of random_instance(m, random.Random(seed)) themselves
        rng = random.Random(seed)
        for _ in range(instances):
            m = m_low if m_low == m_high else rng.randint(m_low, m_high)
            p, q, pw, cj, ck = random_instance(m, rng)
            fast = find_manipulation(p, q, pw, cj, ck)
            assert fast == oracle_manipulation(p, q, pw, cj, ck), (p, q, pw, cj, ck)

    def test_matches_reference_search(self):
        rng = random.Random(47)
        compared = changed = 0
        while compared < 20000:
            case = random_case(rng, rng.randint(2, 30))
            if case is None:
                continue
            p, q, pw, cj, ck = case
            fast = find_manipulation(p, q, pw, cj, ck)
            assert fast == reference_find_manipulation(p, q, pw, cj, ck), case
            if fast.changed:
                # the search reports its block-count minimum; recount it
                assert fast.distance == swap_distance(p, fast.new_order), case
            compared += 1
            changed += fast.changed
        assert changed > 1000  # the sweep must actually exercise rewrites


def test_rewrites_never_worse_in_any_completion():
    """Local dominance against exact dominance.  At every round of seeded
    manipulative elections, the queried voter's search runs on each of her
    open pairs, the round's own query among them.  Over every joint
    completion of the other voters' relations as the center holds them, and
    judged by her true ranking, the Borda winner with any rewrite it returns,
    the adopted ones included, is never worse than with her ranking before."""
    rng = random.Random(derive_seed("exact-dominance"))
    rounds = checked = completions = better = 0
    for trial in range(400):
        m, n = rng.randint(4, 5), rng.randint(3, 4)
        profiles = [LinearOrder(rng.sample(range(m), m)) for _ in range(n)]
        policy = POLICIES[trial % len(POLICIES)]
        result = run_election(profiles, MANIPULATIVE, policy, random.Random(rng.getrandbits(64)))
        # the recorded answers rebuild each round's relations and rankings
        state = CenterState(n, m)
        rankings = list(profiles)
        for step in result.trace:
            v = step.query.voter
            p, q = rankings[v], state.qs[v]
            rewrites = []
            for a, b in unresolved_pairs(q):
                cj, ck = (a, b) if p.prefers(a, b) else (b, a)
                outcome = find_manipulation(p, q, step.pw, cj, ck)
                if outcome.changed:
                    rewrites.append(outcome.new_order)
            if step.manipulated:
                assert step.adopted in rewrites
                rounds += 1
                rankings[v] = step.adopted
            if rewrites:
                others = completion_scores([r for u, r in enumerate(state.qs) if u != v])
                true_rank = np.asarray(profiles[v].rank_of)
                # argmax breaks a tie for the lowest id, as borda_winner does
                before = true_rank[np.argmax(others + m - np.asarray(p.rank_of), axis=1)]
                for rewrite in rewrites:
                    won = true_rank[np.argmax(others + m - np.asarray(rewrite.rank_of), axis=1)]
                    assert not np.any(won > before), (trial, step, rewrite)
                    better += int(np.sum(won < before))
                checked += len(rewrites)
                completions += len(others) * len(rewrites)
            state.apply_response(step.query, step.response)
    assert rounds >= 250 and better > 0
    print(f"exact dominance: {rounds} manipulated rounds, {checked} rewrites checked over "
          f"{completions} completions, 0 worse, {better} strictly better")
