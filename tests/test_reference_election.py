"""Whole elections held step by step to a reference election that shares no
code with the round (McKeeman, "Differential testing for software", 1998).

Each voter's relation is a set of pairs closed by ``floyd_warshall``; her
score extremes and pair-difference maxima come by brute force over its linear
extensions; ``reference_select`` draws each query, and a manipulative voter
answers with ``oracle_manipulation`` on her current ranking.
"""

import random

import numpy as np

from iterborda.center import POLICIES, run_election
from iterborda.oracle import oracle_manipulation
from iterborda.prefs import LinearOrder, PartialOrder
from iterborda.voter import MANIPULATIVE, TRUTHFUL

from center_helpers import extension_scores, floyd_warshall, reference_select, threshold_winners


def relation(pairs, m):
    mat = np.zeros((m, m), dtype=bool)
    for a, b in pairs:
        mat[a, b] = True
    return PartialOrder(m, mat)


def extremes(pairs, m):
    """sigma_min + sigma_max per candidate and the matrix of maxima of
    score(c) - score(c2), over every linear extension of the closed ``pairs``."""
    scores = extension_scores(relation(pairs, m))
    diffs = scores[:, :, None] - scores[:, None, :]
    return scores.min(axis=0) + scores.max(axis=0), diffs.max(axis=0)


def reference_election(profiles, behaviours, policy, rng):
    """The election's ``(query, response, adopted, pw)`` per round and its winner.

    ``behaviours`` holds one behaviour per voter; each round recomputes the
    answering voter's extremes only.  ``threshold_winners`` reads the possible
    winners and the necessary winner, which ends the election, off their sum.
    """
    m = profiles[0].m
    rankings, relations = list(profiles), [set() for _ in profiles]
    mids, diffs = map(list, zip(*[extremes(set(), m)] * len(profiles)))
    pairs = [(a, b) for a in range(m) for b in range(a + 1, m)]
    trace = []
    while True:
        pw, winner = threshold_winners(sum(diffs))
        if winner is not None:
            return trace, winner
        open_pairs = [
            {(a, b) for a, b in pairs if (a, b) not in r and (b, a) not in r} for r in relations
        ]
        query = reference_select(open_pairs, sum(mids), pw, policy, rng)
        v, cj, ck = query.voter, query.cj, query.ck
        p = rankings[v]
        answer, adopted = ((cj, ck) if p.prefers(cj, ck) else (ck, cj)), None
        if behaviours[v] == MANIPULATIVE:
            outcome = oracle_manipulation(p, relation(relations[v], m), pw, *answer)
            if outcome.changed:
                adopted = rankings[v] = outcome.new_order
                answer = answer[::-1]
        relations[v] = floyd_warshall(relations[v] | {answer}, m)
        mids[v], diffs[v] = extremes(relations[v], m)
        trace.append((query, answer, adopted, pw))


def check(profiles, behaviour, policy, seed, twin=None):
    """Run both elections at ``seed``: each step, the winner and the RNG state agree."""
    rng, reference_rng = random.Random(seed), random.Random(seed)
    result = run_election(profiles, behaviour, policy, rng, twin)
    steps = [(s.query, s.response, s.adopted, s.pw) for s in result.trace]
    expected = reference_election(profiles, [behaviour] * len(profiles), policy, reference_rng)
    assert (steps, result.winner) == expected, (profiles, behaviour, policy, twin is None)
    assert rng.getstate() == reference_rng.getstate()
    return result


def test_elections_match_reference_election():
    """m = 3-6 and n = 1-6 under every policy and behaviour; the truthful
    side runs from scratch and resumed from the manipulative run's fork."""
    rng = random.Random(29)
    manipulations = 0
    for _ in range(56):
        m, n = rng.randint(3, 6), rng.randint(1, 6)
        profiles = [LinearOrder(rng.sample(range(m), m)) for _ in range(n)]
        for policy in POLICIES:
            seed = rng.getrandbits(64)
            manip = check(profiles, MANIPULATIVE, policy, seed)
            check(profiles, TRUTHFUL, policy, seed)
            check(profiles, TRUTHFUL, policy, seed, twin=manip)
            manipulations += manip.manipulated_count
    assert manipulations >= 100
