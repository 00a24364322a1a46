"""Batch experiment harness: seeded sweeps, paired runs, CSV output.

Every election run gets a seed derived deterministically from the config's
base seed and the run's coordinates, and each manipulative run shares its
seed with a truthful twin so that any change in the final winner is
attributable to manipulation alone.  The two twins ask the same queries and
get the same answers up to the first manipulated answer, so the manipulative
twin runs first and the truthful twin resumes from its state there, or from
its end if it never manipulated, instead of replaying the shared prefix.
Records are sorted by their coordinates before writing, so the CSV bytes do
not depend on worker scheduling.
"""

from __future__ import annotations

import concurrent.futures
import csv
import functools
import hashlib
import random
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterable, Sequence

from .center import POLICIES, Policy, run_election
from .preflib import Dataset, load_soc, sample_profiles
from .voter import BEHAVIORS, MANIPULATIVE, TRUTHFUL


def default_voter_counts() -> list[int]:
    """The small and large grids used in the reference experiments."""
    return list(range(4, 21)) + list(range(30, 101, 10))


@dataclass
class ExperimentConfig:
    dataset: str
    voter_counts: list[int] = field(default_factory=default_voter_counts)
    policies: list[Policy] = field(default_factory=lambda: list(POLICIES))
    behaviors: list[str] = field(default_factory=lambda: list(BEHAVIORS))
    profile_sets: int = 20
    reps_per_set: int = 40
    base_seed: int = 0
    output: str = "."
    workers: int = 1

    def __post_init__(self):
        # perfbench/ still passes (selector, careful) pairs; delete once it passes POLICIES
        self.policies = [p if isinstance(p, Policy) else Policy(*p) for p in self.policies]
        if self.profile_sets < 1 or self.reps_per_set < 1:
            raise ValueError("profile_sets and reps_per_set must be >= 1")
        if any(n < 1 for n in self.voter_counts):
            raise ValueError("voter counts must be >= 1")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        for b in self.behaviors:
            if b not in BEHAVIORS:
                raise ValueError(f"unknown behavior {b!r}")
        # an empty coordinate list runs nothing; a repeated one reruns identical elections
        for name, values in (
            ("voter_counts", self.voter_counts),
            ("policies", [p.name for p in self.policies]),
            ("behaviors", self.behaviors),
        ):
            if not values:
                raise ValueError(f"{name} must not be empty")
            repeated = list(dict.fromkeys(v for i, v in enumerate(values) if v in values[:i]))
            if repeated:
                raise ValueError(f"{name} lists {repeated} more than once")


@dataclass(frozen=True, order=True)
class RunRecord:
    """One election run, flattened to a CSV row.

    Records order by their coordinates, the first seven fields, which are
    unique within a sweep.
    """

    dataset: str
    policy: str
    careful: bool
    behavior: str
    n_voters: int
    set_index: int
    rep_index: int
    queries_issued: int
    max_queries: int
    manipulated_count: int
    winner: int
    paired_truthful_winner: int
    outcome_changed: bool


@dataclass(frozen=True)
class SummaryRow:
    dataset: str
    policy: str
    careful: bool
    behavior: str
    n_voters: int
    runs: int
    mean_manipulation_ratio: float
    mean_outcome_changed: float
    mean_fraction_queried: float


def derive_seed(*parts) -> int:
    """Stable 64-bit seed from arbitrary coordinates (hash-based, version-proof)."""
    key = "|".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(key.encode()).digest()[:8], "big")


def parse_config(text: str) -> ExperimentConfig:
    """Parse a flat ``key = value`` config; lists are comma-separated."""
    raw: dict[str, str] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep:
            raise ValueError(f"config line {line_no}: expected 'key = value'")
        if key in raw:
            raise ValueError(f"config line {line_no}: key {key!r} given twice")
        raw[key] = value

    known = {f.name for f in fields(ExperimentConfig)}
    unknown = set(raw) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    if "dataset" not in raw:
        raise ValueError("config is missing required key 'dataset'")

    kwargs: dict = {"dataset": raw["dataset"]}
    if "voter_counts" in raw:
        kwargs["voter_counts"] = [int(tok) for tok in raw["voter_counts"].split(",")]
    if "policies" in raw:
        names = raw["policies"].split(",")
        kwargs["policies"] = [Policy.parse(tok.strip().lower()) for tok in names]
    if "behaviors" in raw:
        kwargs["behaviors"] = [tok.strip().lower() for tok in raw["behaviors"].split(",")]
    for key in ("profile_sets", "reps_per_set", "base_seed", "workers"):
        if key in raw:
            kwargs[key] = int(raw[key])
    if "output" in raw:
        kwargs["output"] = raw["output"]
    return ExperimentConfig(**kwargs)


def load_config(path: str | Path) -> ExperimentConfig:
    return parse_config(Path(path).read_text(encoding="utf-8"))


def _run_profile_set(
    cfg: ExperimentConfig, ds: Dataset, cell: tuple[int, int]
) -> list[RunRecord]:
    """All runs that share one sampled voter profile set: ``cell`` is its
    (voter count, set index)."""
    n, set_index = cell
    profiles = sample_profiles(
        ds, n, random.Random(derive_seed(cfg.base_seed, "profiles", n, set_index))
    )
    records = []
    for rep in range(cfg.reps_per_set):
        for policy in cfg.policies:
            seed = derive_seed(cfg.base_seed, "run", *cell, rep, policy.selector, policy.careful)
            results = {}
            if MANIPULATIVE in cfg.behaviors:
                results[MANIPULATIVE] = run_election(
                    profiles, MANIPULATIVE, policy, random.Random(seed)
                )
            # the truthful twin always runs: it anchors outcome_changed
            truthful = results[TRUTHFUL] = run_election(
                profiles, TRUTHFUL, policy, random.Random(seed),
                twin=results.get(MANIPULATIVE),
            )
            for behavior in cfg.behaviors:
                res = results[behavior]
                records.append(
                    RunRecord(
                        dataset=ds.name,
                        policy=policy.selector,
                        careful=policy.careful,
                        behavior=behavior,
                        n_voters=n,
                        set_index=set_index,
                        rep_index=rep,
                        queries_issued=res.queries_issued,
                        max_queries=res.max_queries,
                        manipulated_count=res.manipulated_count,
                        winner=res.winner,
                        paired_truthful_winner=truthful.winner,
                        outcome_changed=res.winner != truthful.winner,
                    )
                )
    return records


def run_experiment(cfg: ExperimentConfig, ds: Dataset | None = None) -> list[RunRecord]:
    """Execute the full sweep; the result is independent of worker count."""
    if ds is None:
        ds = load_soc(cfg.dataset)
    cells = [(n, s) for n in cfg.voter_counts for s in range(cfg.profile_sets)]
    run_cell = functools.partial(_run_profile_set, cfg, ds)
    # the pool forks all its workers at once, so start no more than there are cells
    workers = min(cfg.workers, len(cells))
    if workers > 1:
        # looked up here, so that a serial run never loads multiprocessing
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(run_cell, cells))
    else:
        chunks = map(run_cell, cells)
    return sorted(rec for chunk in chunks for rec in chunk)


def summarize(records: Sequence[RunRecord]) -> list[SummaryRow]:
    """Per (dataset, policy, careful, behavior, n_voters) means of the three measures."""
    if not records:
        raise ValueError("no records to summarize")
    groups: dict[tuple, list[RunRecord]] = {}
    for rec in records:
        key = (rec.dataset, rec.policy, rec.careful, rec.behavior, rec.n_voters)
        groups.setdefault(key, []).append(rec)
    rows = []
    for key in sorted(groups):
        recs = groups[key]
        k = len(recs)
        rows.append(
            SummaryRow(
                *key,
                runs=k,
                mean_manipulation_ratio=sum(
                    r.manipulated_count / r.queries_issued for r in recs
                )
                / k,
                mean_outcome_changed=sum(r.outcome_changed for r in recs) / k,
                mean_fraction_queried=sum(
                    r.queries_issued / r.max_queries for r in recs
                )
                / k,
            )
        )
    return rows


def _cell(value):
    """A CSV cell: booleans as true/false, floats to six decimals."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6f}"
    return value


def _write_rows(cls, rows: Iterable, path: str | Path) -> None:
    """One CSV column per field of the dataclass ``cls``, in field order."""
    names = [f.name for f in fields(cls)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for r in rows:
            writer.writerow([_cell(getattr(r, name)) for name in names])


def write_records_csv(records: Iterable[RunRecord], path: str | Path) -> None:
    _write_rows(RunRecord, records, path)


def write_summary_csv(rows: Iterable[SummaryRow], path: str | Path) -> None:
    _write_rows(SummaryRow, rows, path)
