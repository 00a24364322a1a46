"""Exact Borda possible winners as a test oracle for the published superset.

The center publishes a sound polynomial superset of the possible winners; the
exact set is NP-complete to decide (Xia & Conitzer, JAIR 2011), so it is
computed here, at small sizes only, and never inside the package.

For a candidate c, each voter contributes one gain vector per linear extension
of the voter's revealed relation: score(c) - score(x) for every rival x.  c is a
possible winner exactly when one vector per voter sums to at least 1 against
every rival with a lower id (which wins ties) and at least 0 against the rest.
The sum is built voter by voter, keeping only its Pareto frontier, which stays
small because gains beyond what a rival needs are capped.

The trace cross-check replays manipulative elections on ``sample7`` and
asserts, at every round where the superset excludes some candidate, that it
contains the exact set and that every recorded manipulation is also found
against the exact set.  Manipulation needs a candidate outside the published
set (above or below the possible winners' span), so those are all the rounds
that can carry one.
"""

import itertools
import random

import numpy as np

from iterborda.center import CenterState, Policy, TraceStep, run_election
from iterborda.experiment import derive_seed
from iterborda.manipulation import find_manipulation
from iterborda.oracle import enumerate_extensions
from iterborda.preflib import bundled, sample_profiles
from iterborda.prefs import LinearOrder
from iterborda.voter import MANIPULATIVE, VoterState

from center_helpers import joint_winner_set, random_relation

TRACE_ELECTIONS = 8


def _pareto(vecs):
    """The distinct rows of ``vecs`` that no other row weakly exceeds everywhere."""
    vecs = np.unique(vecs, axis=0)
    # only a row with a larger sum can cover another, so scan by falling sum
    vecs = vecs[np.argsort(-vecs.sum(axis=1), kind="stable")]
    front = vecs[:0]
    for start in range(0, len(vecs), 256):
        block = vecs[start:start + 256]
        block = block[~np.all(front[None] >= block[:, None], axis=2).any(axis=1)]
        inner = np.all(block[None] >= block[:, None], axis=2)
        np.fill_diagonal(inner, False)
        front = np.concatenate([front, block[~inner.any(axis=1)]])
    return front


def _can_win(rank_sets, c):
    m = rank_sets[0].shape[1]
    rivals = [x for x in range(m) if x != c]
    need = np.array([1 if x < c else 0 for x in rivals])
    gains = [ranks[:, rivals] - ranks[:, [c]] for ranks in rank_sets]
    lo = np.array([g.min(axis=0) for g in gains])
    if np.any(sum(g.max(axis=0) for g in gains) < need):
        return False
    # A voter's gain at or above need minus the others' minima beats that
    # rival whatever the others do; capping it there (never below the voter's
    # own minimum, which the other caps rely on) shrinks the frontiers.
    caps = np.maximum(need - (lo.sum(axis=0) - lo), lo)
    gains = [_pareto(np.minimum(g, cap)) for g, cap in zip(gains, caps)]
    zero = np.zeros(len(rivals), dtype=np.int64)
    # rest_*[i]: bounds on what voters i, i+1, ... can still add
    rest_hi = list(itertools.accumulate((g.max(axis=0) for g in gains[::-1]), initial=zero))[::-1]
    rest_lo = list(itertools.accumulate((g.min(axis=0) for g in gains[::-1]), initial=zero))[::-1]
    sums = zero[None]
    for i, g in enumerate(gains):
        sums = (sums[:, None] + g[None]).reshape(-1, len(rivals))
        sums = sums[np.all(sums + rest_hi[i + 1] >= need, axis=1)]
        if len(sums) == 0:
            return False
        sums = _pareto(np.minimum(sums, need - rest_lo[i + 1]))
    return True


def _exact_possible_winners(qs, memo):
    """Exact possible-winner set of the relations ``qs``.

    ``memo`` maps a relation's bytes to the rank rows of its linear
    extensions; pass the same dict across the rounds of one election.
    """
    rank_sets = []
    for q in qs:
        key = q.mat.tobytes()
        if key not in memo:
            # argsort inverts each ranking tuple into its rank_of row
            rankings = [r for r, _ in enumerate_extensions(q, LinearOrder(range(q.m)))]
            memo[key] = np.argsort(np.array(rankings, dtype=np.int64), axis=1)
        rank_sets.append(memo[key])
    return {c for c in range(qs[0].m) if _can_win(rank_sets, c)}


def test_oracle_matches_joint_enumeration():
    rng = random.Random(derive_seed("exact-pw-joint"))
    for i in range(360):
        m, n = (5, 2) if i % 6 == 0 else (rng.randint(2, 4), rng.randint(1, 3))
        qs = [random_relation(m, rng) for _ in range(n)]
        assert _exact_possible_winners(qs, {}) == joint_winner_set(qs), qs


def test_trace_superset_and_manipulations_against_exact_set():
    ds = bundled("sample7")
    rounds_checked = strict_rounds = manipulations = 0
    for trial in range(TRACE_ELECTIONS):
        rng = random.Random(derive_seed("exact-pw-trace", trial))
        profiles = sample_profiles(ds, 3 + trial % 3, rng)
        policy = Policy("random" if trial % 2 else "es", careful=trial % 4 >= 2)
        seed = rng.getrandbits(64)
        query_rng = random.Random(seed)
        voters = [VoterState(p) for p in profiles]
        state = CenterState(len(profiles), ds.m)
        memo = {}
        trace = []
        while state.necessary_winner() is None:
            pw = state.pw_cache
            exact = None
            if len(pw) < ds.m:
                exact = _exact_possible_winners(state.qs, memo)
                assert exact <= pw, (trial, len(trace), sorted(exact), sorted(pw))
                rounds_checked += 1
                strict_rounds += exact != pw
            query = state.select_query(policy, query_rng)
            vs = voters[query.voter]
            p_before, q_before = vs.p_current, state.qs[query.voter]
            answer, manipulated = vs.respond(query.cj, query.ck, q_before, pw, MANIPULATIVE)
            if manipulated:
                manipulations += 1
                assert exact is not None, "manipulation while every candidate was possible"
                preferred, other = answer[1], answer[0]
                found = find_manipulation(p_before, q_before, exact, preferred, other)
                assert found.changed, (trial, len(trace), query, sorted(exact), sorted(pw))
            state.apply_response(query, answer)
            trace.append(TraceStep(query, answer, manipulated, pw))
        # the replay above is the run the package records for this seed
        recorded = run_election(profiles, MANIPULATIVE, policy, random.Random(seed))
        assert recorded.trace == trace
    # the check must meet manipulations and rounds where the relaxation bites
    assert manipulations > 0 and strict_rounds > 0
    print(
        f"exact possible winners: {rounds_checked} rounds checked, superset strictly "
        f"larger in {strict_rounds}, {manipulations} manipulations all found"
    )
