"""Behaviour lock: pinned sha256 digests of a small sweep's CSV output.

The README promises that identical config and seed give byte-identical
``records.csv``.  These digests were computed before the voting center's
caches were made incremental; any refactor of the center, the Borda kernels
or the harness must leave them unchanged, at one worker and at two.
"""

import hashlib

import pytest

from iterborda.center import Policy
from iterborda.experiment import (
    ExperimentConfig,
    run_experiment,
    summarize,
    write_records_csv,
    write_summary_csv,
)
from iterborda.preflib import bundled_path
from iterborda.voter import BEHAVIORS

POLICIES = [Policy.parse(name) for name in ("es", "random", "careful-es", "careful-random")]
RECORDS_SHA256 = "1cdd1f7828bc3a26aa859d6e7d01c7873635e5ed91a71ff84dd1e1657e765bc3"
SUMMARY_SHA256 = "8522cd3e4123f60618061de97050a2af0e90acc703c099e4f3f43a3facbc2eee"


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_csv_digests_are_pinned(tmp_path, workers):
    cfg = ExperimentConfig(
        dataset=str(bundled_path("sample7")),
        voter_counts=[4, 9],
        policies=[(p.selector, p.careful) for p in POLICIES],
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
