"""Acceptance suite.

Each test prints one PASS/FAIL line per criterion (run with ``-s`` to see the
lines for passing tests; pytest shows captured output for failing ones).

Criteria:
  1. the fast manipulation search agrees with brute force everywhere
     (exhaustive m=4 state space, 10k random instances at m=5 and at m=6);
  2. truthful elections always return the full-information Borda winner;
  3. safe queries (both candidates possible winners) are never manipulable;
  4. pairwise score-difference extremes are exact against enumeration;
  5. desk-scale manipulation-rate statistics on the bundled 10-candidate
     sample: each per-setting mean equals, to 4 decimals, the rate the
     documented method gives on this sweep (its recorded manipulations are
     confirmed against exact possible winners in
     test_exact_possible_winners.py), and careful-random <= random,
     careful-es <= es;
  6. outcome-impact bounds on the same sweep;
  7. the expected-score policy queries less than the random policy;
  8. trace invariants: possible-winner order preservation at every round of
     every manipulative run, and local dominance at each manipulation.
"""

import itertools
import random
from collections import defaultdict

import numpy as np
import pytest

from iterborda.borda import borda_winner, pair_diff_matrix, score_bounds_vectors
from iterborda.center import POLICIES, Policy, run_election
from iterborda.experiment import ExperimentConfig, derive_seed, run_experiment
from iterborda.manipulation import find_manipulation, is_locally_dominant, order_pw
from iterborda.oracle import oracle_manipulation, random_instance
from iterborda.preflib import bundled, sample_profiles
from iterborda.prefs import LinearOrder, unresolved_pairs
from iterborda.voter import MANIPULATIVE, TRUTHFUL

from center_helpers import all_closed_relations, extension_scores, linear_extensions

RANDOM_INSTANCES_PER_M = 10_000  # criterion 1, at m=5 and at m=6
SCORE_BOUND_INSTANCES = 12_000  # criterion 4, m in 3..6
TRUTHFUL_ELECTIONS = 1_000  # criterion 2

SWEEP_VOTER_COUNTS = list(range(4, 21))
SWEEP_PROFILE_SETS = 5
SWEEP_REPS = 10


def _report(criterion: int, ok: bool, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    return ok


# ---------------------------------------------------------------------------
# criteria 1 and 3 share one instance sweep


def _check_instance(p, q, pw, cj, ck, failures, safe_failures):
    fast = find_manipulation(p, q, pw, cj, ck)
    slow = oracle_manipulation(p, q, pw, cj, ck)
    if fast != slow:
        failures.append((list(p.ranking), sorted(q.pairs()), sorted(pw), (cj, ck),
                         (fast.changed, fast.distance, list(fast.new_order.ranking)),
                         (slow.changed, slow.distance, list(slow.new_order.ranking))))
    if cj in pw and ck in pw and fast.changed:
        safe_failures.append((list(p.ranking), sorted(q.pairs()), sorted(pw), (cj, ck)))


@pytest.fixture(scope="module")
def oracle_sweep():
    failures = []
    safe_failures = []
    checked = 0
    safe_checked = 0

    # exhaustive m=4: every closed relation x every ranking that extends it x
    # every open query pair x every nonempty possible-winner set
    m = 4
    pw_sets = [set(s) for size in range(1, m + 1)
               for s in itertools.combinations(range(m), size)]
    for q in all_closed_relations(m):
        open_pairs = unresolved_pairs(q)
        for p in linear_extensions(q):
            for a, b in open_pairs:
                cj, ck = (a, b) if p.prefers(a, b) else (b, a)
                for pw in pw_sets:
                    _check_instance(p, q, pw, cj, ck, failures, safe_failures)
                    checked += 1
                    safe_checked += cj in pw and ck in pw

    # random instances at m=5 and m=6
    for m in (5, 6):
        rng = random.Random(derive_seed("acceptance-oracle", m))
        for _ in range(RANDOM_INSTANCES_PER_M):
            p, q, pw, cj, ck = random_instance(m, rng)
            _check_instance(p, q, pw, cj, ck, failures, safe_failures)
            checked += 1
            safe_checked += cj in pw and ck in pw

    return {
        "failures": failures,
        "safe_failures": safe_failures,
        "checked": checked,
        "safe_checked": safe_checked,
    }


def test_criterion_1_oracle_equivalence(oracle_sweep):
    failures = oracle_sweep["failures"]
    ok = _report(
        1,
        not failures,
        f"search vs oracle agreement on {oracle_sweep['checked']} instances "
        f"({len(failures)} mismatches)",
    )
    assert ok, f"first mismatch: {failures[:1]}"


def test_criterion_3_safe_query_immunity(oracle_sweep):
    bad = oracle_sweep["safe_failures"]
    assert oracle_sweep["safe_checked"] > 10_000  # the sweep must cover safe queries
    ok = _report(
        3,
        not bad,
        f"{oracle_sweep['safe_checked']} safe queries, {len(bad)} manipulated",
    )
    assert ok, f"first safe-query manipulation: {bad[:1]}"


# ---------------------------------------------------------------------------


def test_criterion_2_truthful_correctness():
    rng = random.Random(derive_seed("acceptance-truthful"))
    runs = 0
    mismatches = 0
    while runs < TRUTHFUL_ELECTIONS:
        m = rng.randint(2, 7)
        n = rng.randint(1, 10)
        profiles = [LinearOrder(rng.sample(range(m), m)) for _ in range(n)]
        expected = borda_winner(profiles)
        for policy in POLICIES:
            result = run_election(
                profiles, TRUTHFUL, policy, random.Random(rng.getrandbits(64))
            )
            runs += 1
            mismatches += result.winner != expected
    ok = _report(2, mismatches == 0, f"{runs} truthful elections, {mismatches} wrong winners")
    assert ok


def test_criterion_4_score_bound_exactness():
    rng = random.Random(derive_seed("acceptance-bounds"))
    bad = 0
    for i in range(SCORE_BOUND_INSTANCES):
        m = 3 + (i % 4)
        p, q, _, _, _ = random_instance(m, rng)
        sigma = extension_scores(q)
        brute_max = (sigma[:, :, None] - sigma[:, None, :]).max(axis=0)
        fast_max = pair_diff_matrix(q, score_bounds_vectors(q))
        off = ~np.eye(m, dtype=bool)
        if not np.array_equal(brute_max[off], fast_max[off]):
            bad += 1
    ok = _report(
        4,
        bad == 0,
        f"pairwise extremes vs enumeration on {SCORE_BOUND_INSTANCES} closures "
        f"({bad} mismatches)",
    )
    assert ok


# ---------------------------------------------------------------------------
# criteria 5-7 share one experiment sweep


@pytest.fixture(scope="module")
def sweep_records():
    cfg = ExperimentConfig(
        dataset="unused",
        voter_counts=SWEEP_VOTER_COUNTS,
        policies=POLICIES,
        behaviors=[TRUTHFUL, MANIPULATIVE],
        profile_sets=SWEEP_PROFILE_SETS,
        reps_per_set=SWEEP_REPS,
        base_seed=20240520,
        workers=2,
    )
    return run_experiment(cfg, ds=bundled("sample10"))


def _policy_key(record):
    return Policy(record.policy, record.careful).name


def _group_means(records, behavior, value):
    groups = defaultdict(list)
    for rec in records:
        if rec.behavior == behavior:
            groups[_policy_key(rec)].append(value(rec))
    return {key: sum(vals) / len(vals) for key, vals in groups.items()}


# Mean manipulated-query ratio per manipulative setting on the criterion-5
# sweep.  The paper's abstract gives no figure ("a low percentage of
# settings"), so these pin what the documented method gives.
EXPECTED_MANIPULATION_RATES = {
    "es": 0.0480,
    "careful-es": 0.0313,
    "careful-random": 0.0207,
    "random": 0.0333,
}


def test_criterion_5_manipulation_rate(sweep_records):
    means = _group_means(
        sweep_records, MANIPULATIVE, lambda r: r.manipulated_count / r.queries_issued
    )
    problems = []
    for key, expected in EXPECTED_MANIPULATION_RATES.items():
        rate_ok = round(means[key], 4) == expected
        _report(
            5,
            rate_ok,
            f"mean manipulation ratio {key}+M = {means[key]:.4f} (expected {expected:.4f})",
        )
        if not rate_ok:
            problems.append(f"{key}+M mean {means[key]:.4f} != {expected:.4f}")
    for careful, plain in (("careful-random", "random"), ("careful-es", "es")):
        order_ok = means[careful] <= means[plain]
        _report(
            5,
            order_ok,
            f"ordering {careful}+M ({means[careful]:.4f}) <= {plain}+M ({means[plain]:.4f})",
        )
        if not order_ok:
            problems.append(f"{careful}+M exceeds {plain}+M")
    assert not problems, "; ".join(problems)


def test_criterion_6_outcome_impact(sweep_records):
    means = _group_means(
        sweep_records, MANIPULATIVE, lambda r: float(r.outcome_changed)
    )
    bound_ok = means["random"] <= 0.25
    order_ok = means["careful-random"] <= means["random"]
    _report(6, bound_ok, f"outcome-change proportion random+M = {means['random']:.4f} (bound 0.25)")
    _report(
        6,
        order_ok,
        f"ordering careful-random+M ({means['careful-random']:.4f}) <= "
        f"random+M ({means['random']:.4f})",
    )
    assert bound_ok and order_ok


def test_criterion_7_query_count_direction(sweep_records):
    means = _group_means(
        sweep_records, TRUTHFUL, lambda r: r.queries_issued / r.max_queries
    )
    ok = means["es"] < means["random"]
    _report(
        7,
        ok,
        f"mean fraction queried es+T = {means['es']:.4f} < random+T = {means['random']:.4f}",
    )
    assert ok


def test_criterion_8_trace_invariants(sweep_records):
    # Part 1: run_election audits every manipulation of the sweep for local
    # dominance; reaching this point with a full record set means none of
    # them tripped.
    expected = (
        len(SWEEP_VOTER_COUNTS) * SWEEP_PROFILE_SETS * SWEEP_REPS * len(POLICIES) * 2
    )
    assert len(sweep_records) == expected

    # Part 2: an independent check of a subsample's recorded traces, for all
    # voters at all rounds: each manipulation's adopted ranking locally
    # dominates the queried voter's ranking before it, every other answer
    # agrees with her ranking, and each ranking orders the live
    # possible-winner set exactly as the true ranking does.
    ds = bundled("sample10")
    violations = 0
    rounds_checked = 0
    manipulations_seen = 0
    for trial in range(12):
        rng = random.Random(derive_seed("acceptance-replay", trial))
        profiles = sample_profiles(ds, 4 + trial, rng)
        policy = Policy("random" if trial % 2 else "es", careful=trial % 3 == 0)
        result = run_election(profiles, MANIPULATIVE, policy, rng)
        rankings = list(profiles)
        # the live set after a round is the next round's, and after the last
        # one the winner alone
        live_after = [step.pw for step in result.trace[1:]] + [frozenset({result.winner})]
        for step, live in zip(result.trace, live_after):
            v = step.query.voter
            before = rankings[v]
            if step.manipulated:
                manipulations_seen += 1
                if not is_locally_dominant(step.adopted, before, order_pw(before, step.pw)):
                    violations += 1
                rankings[v] = step.adopted
            elif not before.prefers(*step.response):
                violations += 1
            for current, true in zip(rankings, profiles):
                rounds_checked += 1
                if order_pw(current, live) != order_pw(true, live):
                    violations += 1
    assert manipulations_seen > 0
    ok = _report(
        8,
        violations == 0,
        f"possible-winner order and local dominance over {rounds_checked} "
        f"voter-rounds, {manipulations_seen} manipulations ({violations} violations)",
    )
    assert ok
