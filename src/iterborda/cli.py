"""Command-line interface.

Two subcommands:

* ``run``: one election on a dataset sample, trace printed to stdout;
* ``experiment``: a config-driven sweep writing records.csv and summary.csv.

Bad input raises ``_BadInput`` inside a command, and ``main`` alone reports
it: one line on stderr, exit code 2, before any output is written.  Bad input
is a dataset or config that is missing, unreadable or malformed (a malformed
config's message names its line), a dataset with fewer than two candidates,
no voters, or an output directory that cannot be created.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

from . import experiment as exp
from .center import POLICIES, Policy, is_safe, run_election
from .preflib import Dataset, ParseError, load_soc, sample_profiles
from .voter import BEHAVIORS


class _BadInput(Exception):
    """Command-line input that cannot be used; its message is the reason."""


def _load_dataset(path: str) -> Dataset:
    """The dataset at ``path``; raise ``_BadInput`` if it cannot be used."""
    try:
        ds = load_soc(path)
    except OSError as exc:
        raise _BadInput(f"cannot read dataset {path}: {exc.strerror or exc}")
    except (ParseError, UnicodeDecodeError) as exc:
        raise _BadInput(f"malformed dataset {path}: {exc}")
    if ds.m < 2:
        raise _BadInput(f"dataset {path} ranks {ds.m} candidate; an election needs at least 2")
    return ds


def _cmd_run(args) -> None:
    if args.voters < 1:
        raise _BadInput(f"--voters must be at least 1, got {args.voters}")
    ds = _load_dataset(args.dataset)
    seed = exp.derive_seed(args.seed, "cli-run")
    rng = random.Random(seed)
    profiles = sample_profiles(ds, args.voters, rng)
    policy = Policy.parse(args.policy)
    result = run_election(profiles, args.behavior, policy, rng)
    print(f"dataset={ds.name} m={ds.m} n={args.voters} policy={policy.name} "
          f"behavior={args.behavior} seed={args.seed}")
    for i, step in enumerate(result.trace):
        a, b = step.response
        tags = []
        if step.manipulated:
            tags.append(f"manipulated, adopted {' > '.join(map(str, step.adopted.ranking))}")
        if is_safe(step.query, step.pw):
            tags.append("safe")
        suffix = f"  [{', '.join(tags)}]" if tags else ""
        print(
            f"round {i + 1:3d}: voter {step.query.voter} asked "
            f"({step.query.cj}, {step.query.ck}) -> {a} over {b}; "
            f"PW={sorted(step.pw)}{suffix}"
        )
    print(
        f"winner: candidate {result.winner} after {result.queries_issued} of "
        f"{result.max_queries} possible queries "
        f"({result.manipulated_count} manipulated)"
    )


def _cmd_experiment(args) -> None:
    try:
        cfg = exp.load_config(args.config)
    except OSError as exc:
        raise _BadInput(f"cannot read config {args.config}: {exc.strerror or exc}")
    except ValueError as exc:
        raise _BadInput(f"malformed config {args.config}: {exc}")
    ds = _load_dataset(cfg.dataset)
    out_dir = Path(args.out if args.out is not None else cfg.output)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _BadInput(f"cannot create output directory {out_dir}: {exc.strerror or exc}")
    records = exp.run_experiment(cfg, ds)
    exp.write_records_csv(records, out_dir / "records.csv")
    exp.write_summary_csv(exp.summarize(records), out_dir / "summary.csv")
    print(f"wrote {len(records)} records to {out_dir / 'records.csv'}")
    print(f"wrote summary to {out_dir / 'summary.csv'}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iterborda",
        description="Iterative Borda preference elicitation with strategic voters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a single election and print its trace")
    p_run.add_argument("--dataset", required=True, help="path to a .soc data file")
    p_run.add_argument("--voters", type=int, required=True)
    p_run.add_argument("--policy", choices=[p.name for p in POLICIES], required=True)
    p_run.add_argument("--behavior", choices=list(BEHAVIORS), required=True)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.set_defaults(func=_cmd_run)

    p_exp = sub.add_parser("experiment", help="run a config-driven sweep")
    p_exp.add_argument("--config", required=True, help="flat key=value config file")
    p_exp.add_argument("--out", default=None, help="output directory (default: config's)")
    p_exp.set_defaults(func=_cmd_experiment)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except _BadInput as exc:
        print(f"iterborda: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
