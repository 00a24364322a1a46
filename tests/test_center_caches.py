"""Seeded walks that hold the voting center's incremental caches to recomputation.

Two walks, each from its own seed, start a ``CenterState`` at every n <= 4
and m <= 7 and take 30 steps, each one rule that applies: reseed the draw
RNG, carry on with a ``copy()``, or answer, in a random direction, the
query a random policy selects or any open query.  After every step a walk
runs ``assert_caches_match`` on the state and on every state a copy was
taken from, whose relations and possible winners must not have moved as the
copy answered on.  Feeding the recorded answers of manipulative elections
at m = 30 to a fresh center runs the same check at every round and on each
fork.  The walk is also the unit suite's check of query selection: from the
same RNG state, every policy must pick what the list-walk selector
``reference_select`` picks, rebuilding the pool from scratch every time,
and leave the RNG in the same state (one ``randrange`` over the same pool
size).
"""

import itertools
import random
from pathlib import Path

import numpy as np
import pytest

from iterborda.center import (
    ES,
    POLICIES,
    CenterState,
    NoQueriesLeftError,
    Policy,
    Query,
    run_election,
)
from iterborda.preflib import sample_profiles
from iterborda.prefs import unresolved_pairs
from iterborda.voter import MANIPULATIVE

from center_helpers import (
    assert_caches_match,
    load_module,
    possible_winners,
    reference_mid_total,
    reference_select,
    unresolved,
)


def select_from_scratch(qs, policy, rng):
    """``reference_select`` on the open pairs, midpoints and PW recomputed from ``qs``."""
    open_pairs = [set(unresolved_pairs(q)) for q in qs]
    return reference_select(open_pairs, reference_mid_total(qs), possible_winners(qs), policy, rng)


def cloned(rng):
    twin = random.Random()
    twin.setstate(rng.getstate())
    return twin


def assert_walk_invariants(state, originals, rng):
    """The caches of ``state`` and of every state a copy was taken from match
    recomputation, and every policy selects what the list walk selects."""
    assert_caches_match(state)
    for original, qs, pw in originals:
        assert [q.tobytes() for q in original.qs] == qs and original.pw_cache == pw
        assert_caches_match(original)
    for policy in POLICIES:
        draw = random.Random(rng.random())
        twin = cloned(draw)
        try:
            expected = select_from_scratch(state.qs, policy, twin)
        except NoQueriesLeftError:
            expected = NoQueriesLeftError
        try:
            got = state.select_query(policy, draw)
        except NoQueriesLeftError:
            got = NoQueriesLeftError
        assert got == expected
        assert draw.getstate() == twin.getstate()


def test_seeded_walks_match_recomputation():
    answers = 0
    for n, m, walk in itertools.product(range(1, 5), range(2, 8), range(2)):
        steps = random.Random(100 * n + 10 * m + walk)
        state = CenterState(n, m)
        rng = random.Random(steps.getrandbits(32))
        # each state a copy was taken from, with its relations and possible winners then
        originals = []
        for _ in range(30):
            open_queries = unresolved(state)
            rule = steps.choice(["reseed", "copy"] + ["selected", "any"] * bool(open_queries))
            if rule == "reseed":
                rng = random.Random(steps.getrandbits(32))
            elif rule == "copy":
                originals.append((state, [q.tobytes() for q in state.qs], state.pw_cache))
                state = state.copy()
            else:
                if rule == "selected":
                    query = state.select_query(steps.choice(POLICIES), rng)
                else:
                    query = steps.choice(open_queries)
                # either direction of an open pair is consistent with a closed relation
                answer = (query.ck, query.cj) if steps.random() < 0.5 else (query.cj, query.ck)
                state.apply_response(query, answer)
                answers += 1
            assert_walk_invariants(state, originals, rng)
    assert answers >= 300


@pytest.mark.parametrize("policy", [Policy(ES), Policy(ES, careful=True)], ids=lambda p: p.name)
def test_es_falls_back_to_every_pair_when_its_star_is_resolved(policy):
    # both voters put candidate 0 first: it tops the midpoints, its pairs are
    # all resolved, and as the necessary winner it leaves no query safe
    state = CenterState(2, 4)
    for v in range(2):
        for x in range(1, 4):
            state.apply_response(Query(v, 0, x), (0, x))
    assert int(np.argmax(reference_mid_total(state.qs))) == 0
    rng = random.Random(12)
    drawn = set()
    for _ in range(200):
        twin = cloned(rng)
        query = state.select_query(policy, rng)
        assert query == select_from_scratch(state.qs, policy, twin)
        assert rng.getstate() == twin.getstate()
        drawn.add(query)
    assert drawn == {Query(v, a, b) for a, b in [(1, 2), (1, 3), (2, 3)] for v in range(2)}


def test_replay_m30_checks_caches_every_round():
    # the fixed m = 30 Mallows population the benchmark's large workload
    # samples from (200 draws, phi 0.9, seed 30)
    path = Path(__file__).resolve().parents[1] / "demos" / "make_sample_data.py"
    ds = load_module(path).make_sample("mallows30", 30, 200, 0.9, 30)
    manipulations = 0
    for k, policy in enumerate(POLICIES):
        profiles = sample_profiles(ds, 5, random.Random(100 + k))
        result = run_election(profiles, MANIPULATIVE, policy, random.Random(200 + k))
        # a copy made mid-election and left alone as the run went on, or the end state
        assert_caches_match(result.fork[0])
        state = CenterState(5, 30)
        for step in result.trace:
            assert step.pw == state.pw_cache
            state.apply_response(step.query, step.response)
            assert_caches_match(state)
        assert state.pw_cache == {result.winner}
        manipulations += result.manipulated_count
    assert manipulations > 0
