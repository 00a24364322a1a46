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

The trace cross-check reads the recorded traces of manipulative elections on
``sample7`` and asserts, at every round where the superset excludes some
candidate, that it contains the exact set and that every recorded
manipulation is also found against the exact set.  Manipulation needs a
candidate outside the published set (above or below the possible winners'
span), so those are all the rounds that can carry one.
"""

import itertools
import random

import numpy as np

from iterborda.center import CenterState, Policy, run_election
from iterborda.experiment import derive_seed
from iterborda.manipulation import find_manipulation
from iterborda.preflib import bundled, sample_profiles
from iterborda.voter import MANIPULATIVE

from center_helpers import extension_scores, joint_winner_set, random_relation

TRACE_ELECTIONS = 8


def _pareto(vecs):
    """The distinct rows of ``vecs`` that no other row weakly exceeds everywhere.

    They come out by falling sum, ties in lexicographic order.  Each column,
    shifted to start at 0, indexes bitsets of the rows that hold at least that
    value there; ANDing a row's bitsets over the columns gives the rows that
    weakly exceed it, and a frontier row finds only itself.
    """
    shifted = vecs - vecs.min(axis=0)
    span = shifted.max(axis=0) + 1
    # mixed-radix row keys, first column most significant, sort lexicographically
    radix = np.append(np.cumprod(span[:0:-1])[::-1], 1)
    _, first = np.unique(shifted @ radix, return_index=True)
    order = first[np.argsort(-vecs[first].sum(axis=1), kind="stable")]
    vecs, shifted = vecs[order], shifted[order]
    covers = None
    for col, size in zip(shifted.T, span):
        at_least = np.packbits(col >= np.arange(size)[:, None], axis=1, bitorder="little")
        covers = at_least[col] if covers is None else covers & at_least[col]
    rows = np.arange(len(vecs))
    covers[rows, rows >> 3] &= ~(np.uint8(1) << (rows & 7).astype(np.uint8))
    return vecs[~covers.any(axis=1)]


def _can_win(score_sets, c):
    m = score_sets[0].shape[1]
    rivals = [x for x in range(m) if x != c]
    need = np.array([1 if x < c else 0 for x in rivals])
    gains = [scores[:, [c]] - scores[:, rivals] for scores in score_sets]
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

    ``memo`` maps a relation's bytes to the Borda scores of its linear
    extensions; pass the same dict across the rounds of one election.
    """
    score_sets = []
    for q in qs:
        key = q.tobytes()
        if key not in memo:
            memo[key] = extension_scores(q)
        score_sets.append(memo[key])
    return {c for c in range(len(qs[0])) if _can_win(score_sets, c)}


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
        result = run_election(profiles, MANIPULATIVE, policy, random.Random(seed))
        # the recorded answers rebuild each round's relations and rankings
        state = CenterState(len(profiles), ds.m)
        rankings = list(profiles)
        memo = {}
        for i, step in enumerate(result.trace):
            pw = step.pw
            exact = None
            if len(pw) < ds.m:
                exact = _exact_possible_winners(state.qs, memo)
                assert exact <= pw, (trial, i, sorted(exact), sorted(pw))
                rounds_checked += 1
                strict_rounds += exact != pw
            v = step.query.voter
            if step.manipulated:
                manipulations += 1
                assert exact is not None, "manipulation while every candidate was possible"
                preferred, other = step.response[::-1]
                found = find_manipulation(rankings[v], state.qs[v], exact, preferred, other)
                assert found.changed, (trial, i, step.query, sorted(exact), sorted(pw))
                rankings[v] = step.adopted
            state.apply_response(step.query, step.response)
    # the check must meet manipulations and rounds where the relaxation bites
    assert manipulations > 0 and strict_rounds > 0
    print(
        f"exact possible winners: {rounds_checked} rounds checked, superset strictly "
        f"larger in {strict_rounds}, {manipulations} manipulations all found"
    )
