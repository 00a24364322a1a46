"""A small policy-comparison sweep with the three standard measures.

Runs seed-paired truthful/manipulative elections over a grid of voter counts
for all four center policies and prints, per policy: how often answers were
manipulated, how often manipulation flipped the final winner, and what share
of all askable queries the center needed.  Writes the same data to CSV.

Scale the grid up (voter_counts, profile_sets, reps_per_set) to reproduce
the full desk-scale numbers; this small version takes well under a minute.

Run:  python demos/experiment_sweep.py
"""

from pathlib import Path

from iterborda import Policy, bundled_path
from iterborda.experiment import (
    ExperimentConfig,
    run_experiment,
    summarize,
    write_records_csv,
    write_summary_csv,
)

cfg = ExperimentConfig(
    dataset=str(bundled_path("sample10")),
    voter_counts=[4, 8, 12],
    behaviors=["truthful", "manipulative"],
    profile_sets=2,
    reps_per_set=2,
    base_seed=42,
    workers=2,
)

records = run_experiment(cfg)
print(f"{len(records)} election records")
print()

rows = summarize(records)
header = f"{'policy':16s} {'behavior':13s} {'n':>3s} {'manip':>7s} {'changed':>8s} {'queried':>8s}"
print(header)
print("-" * len(header))
for row in rows:
    name = Policy(row.policy, row.careful).name
    print(f"{name:16s} {row.behavior:13s} {row.n_voters:3d} "
          f"{row.mean_manipulation_ratio:7.4f} {row.mean_outcome_changed:8.3f} "
          f"{row.mean_fraction_queried:8.3f}")

out = Path("demo_output")
out.mkdir(exist_ok=True)
write_records_csv(records, out / "records.csv")
write_summary_csv(rows, out / "summary.csv")
print(f"\nwrote {out/'records.csv'} and {out/'summary.csv'}")
