"""Command-line interface.

Three subcommands:

* ``run``: one election on a dataset sample, trace printed to stdout;
* ``experiment``: a config-driven sweep writing records.csv and summary.csv;
* ``oracle-check``: random cross-validation of the fast manipulation search
  against the brute-force reference, nonzero exit on any mismatch.

Bad input (an unreadable or malformed dataset or config, a dataset with
fewer than two candidates, no voters, an output directory that cannot be
created, a candidate count outside what the oracle can enumerate, fewer than
one oracle instance) is reported as one line on stderr with exit code 2,
before any output is written.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

from . import experiment as exp
from .center import POLICIES, Policy, is_safe, run_election
from .manipulation import find_manipulation
from .oracle import DEFAULT_CAP, oracle_manipulation, random_instance
from .preflib import Dataset, ParseError, load_soc, sample_profiles
from .voter import BEHAVIORS


def _bad_input(message: str) -> int:
    """Report bad command-line input as one line; the exit code is 2."""
    print(f"iterborda: error: {message}", file=sys.stderr)
    return 2


def _load_dataset(path: str) -> Dataset | None:
    """The dataset at ``path``, or None once why it cannot be used is reported."""
    try:
        ds = load_soc(path)
    except OSError as exc:
        _bad_input(f"cannot read dataset {path}: {exc.strerror or exc}")
    except (ParseError, UnicodeDecodeError) as exc:
        _bad_input(f"malformed dataset {path}: {exc}")
    else:
        if ds.m >= 2:
            return ds
        _bad_input(f"dataset {path} ranks {ds.m} candidate; an election needs at least 2")
    return None


def _cmd_run(args) -> int:
    if args.voters < 1:
        return _bad_input(f"--voters must be at least 1, got {args.voters}")
    ds = _load_dataset(args.dataset)
    if ds is None:
        return 2
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
            tags.append("manipulated")
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
    return 0


def _cmd_experiment(args) -> int:
    try:
        cfg = exp.load_config(args.config)
    except OSError as exc:
        return _bad_input(f"cannot read config {args.config}: {exc.strerror or exc}")
    except ValueError as exc:
        return _bad_input(f"malformed config {args.config}: {exc}")
    ds = _load_dataset(cfg.dataset)
    if ds is None:
        return 2
    out_dir = Path(args.out if args.out is not None else cfg.output)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return _bad_input(f"cannot create output directory {out_dir}: {exc.strerror or exc}")
    records = exp.run_experiment(cfg, ds)
    exp.write_records_csv(records, out_dir / "records.csv")
    exp.write_summary_csv(exp.summarize(records), out_dir / "summary.csv")
    print(f"wrote {len(records)} records to {out_dir / 'records.csv'}")
    print(f"wrote summary to {out_dir / 'summary.csv'}")
    return 0


def _cmd_oracle_check(args) -> int:
    if not 2 <= args.m <= DEFAULT_CAP:
        return _bad_input(f"--m must be between 2 and {DEFAULT_CAP}, got {args.m}")
    if args.instances < 1:
        return _bad_input(f"--instances must be at least 1, got {args.instances}")
    rng = random.Random(args.seed)
    for i in range(args.instances):
        p, q, pw, cj, ck = random_instance(args.m, rng)
        fast = find_manipulation(p, q, pw, cj, ck)
        slow = oracle_manipulation(p, q, pw, cj, ck)
        if fast != slow:
            print(f"MISMATCH at instance {i}:")
            print(f"  p  = {list(p.ranking)}")
            print(f"  q  = {sorted(q.pairs())}")
            print(f"  pw = {sorted(pw)}  query = ({cj}, {ck})")
            print(f"  fast: changed={fast.changed} distance={fast.distance} "
                  f"order={list(fast.new_order.ranking)}")
            print(f"  oracle: changed={slow.changed} distance={slow.distance} "
                  f"order={list(slow.new_order.ranking)}")
            return 1
    print(f"oracle-check: {args.instances} instances at m={args.m} agree")
    return 0


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

    p_orc = sub.add_parser(
        "oracle-check",
        help="cross-check the manipulation search against brute force",
    )
    p_orc.add_argument("--m", type=int, default=5, help=f"candidate count (2 to {DEFAULT_CAP})")
    p_orc.add_argument("--instances", type=int, default=1000)
    p_orc.add_argument("--seed", type=int, default=0)
    p_orc.set_defaults(func=_cmd_oracle_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
