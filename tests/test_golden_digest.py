"""Behaviour lock: pinned sha256 digests of a small sweep's CSV output and
of the step-by-step traces of a set of elections.

They are the unit suite's determinism checks.  The CSV pins, at one worker
and at two, hold the README's promise that identical config and seed give
byte-identical ``records.csv``; any refactor of the center, the Borda kernels
or the harness must leave them unchanged.  The CSV holds only per-election
counts and winners, so the trace pin stands for identical traces from
identical seeds: every query, answer, adopted ranking and possible-winner set.
"""

import hashlib
import random

import pytest

from iterborda.center import POLICIES, run_election
from iterborda.experiment import (
    ExperimentConfig,
    derive_seed,
    run_experiment,
    summarize,
    write_records_csv,
    write_summary_csv,
)
from iterborda.preflib import bundled, bundled_path, sample_profiles
from iterborda.voter import BEHAVIORS, MANIPULATIVE, TRUTHFUL

RECORDS_SHA256 = "1cdd1f7828bc3a26aa859d6e7d01c7873635e5ed91a71ff84dd1e1657e765bc3"
SUMMARY_SHA256 = "8522cd3e4123f60618061de97050a2af0e90acc703c099e4f3f43a3facbc2eee"
TRACES_SHA256 = "4569ce3e4c26856672a0cae9804dbf5f6b3e725dc4675154174a7941fae1e818"


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_csv_digests_are_pinned(tmp_path, workers):
    cfg = ExperimentConfig(
        dataset=str(bundled_path("sample7")),
        voter_counts=[4, 9],
        behaviors=list(BEHAVIORS),
        profile_sets=2,
        reps_per_set=2,
        base_seed=20240520,
        workers=workers,
    )
    records = run_experiment(cfg)
    assert len(records) == 2 * 2 * 2 * len(POLICIES) * len(BEHAVIORS)
    write_records_csv(records, tmp_path / "records.csv")
    write_summary_csv(summarize(records), tmp_path / "summary.csv")
    assert sha256(tmp_path / "records.csv") == RECORDS_SHA256
    assert sha256(tmp_path / "summary.csv") == SUMMARY_SHA256


def test_election_traces_are_pinned():
    ds = bundled("sample10")
    digest = hashlib.sha256()
    steps = manipulated = 0
    for n in (4, 8, 12):
        profiles = sample_profiles(ds, n, random.Random(derive_seed("trace-pin", n)))
        for policy in POLICIES:
            for behavior in (MANIPULATIVE, TRUTHFUL):
                rng = random.Random(derive_seed("trace-pin", n, policy.name))
                res = run_election(profiles, behavior, policy, rng)
                for s in res.trace:
                    adopted = None if s.adopted is None else s.adopted.ranking
                    q = s.query
                    step = (q.voter, q.cj, q.ck, s.response, adopted, tuple(sorted(s.pw)))
                    digest.update(repr(step).encode())
                digest.update(repr(("winner", res.winner)).encode())
                steps += res.queries_issued
                manipulated += res.manipulated_count
    assert (steps, manipulated) == (4097, 67)
    assert digest.hexdigest() == TRACES_SHA256
