"""The benchmark's workloads: inputs from a seed, units of work, output checks.

A *unit* is the smallest piece of work whose output can be checked on its
own: one experiment sweep (``sweep-m10``, ``large-m30``) or one batch of
manipulation instances (``oracle-m6``).  An *op* is what a unit is made of:
an election or an instance.  A *round* is one query answered by one voter;
an oracle instance is exactly one such round, checked twice.

Every call into the package goes through a module attribute
(``experiment.run_experiment``, ``oracle.random_instance``, ...) so that the
tracer, which swaps those attributes, sees it.

Op and unit times are CPU time of this process (``time.process_time``).  The
load is one single-threaded process, so on an idle machine CPU time equals
wall time; on a shared host it leaves out time the host spends on other
tenants, which wall time would add as noise.
"""

from __future__ import annotations

import hashlib
import importlib.util
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

from iterborda import borda, experiment, manipulation, oracle, preflib
from iterborda.center import Policy
from iterborda.prefs import LinearOrder
from iterborda.voter import BEHAVIORS, MANIPULATIVE, TRUTHFUL
from tracer import patched

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "perfbench" / "results"
DEFAULT_SEED = 0
MALLOWS_SEED = 30
ALL_POLICIES = [("es", False), ("random", False), ("es", True), ("random", True)]


def unit_seed(workload: str, seed: int, unit: int) -> int:
    """Stable 63-bit seed for one unit, independent of the package's helpers."""
    key = f"perfbench|{workload}|{seed}|{unit}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big") >> 1


@dataclass
class UnitOutput:
    """What one unit produced and its CPU time (checks not included)."""

    cpu_s: float
    planned_ops: int
    op_s: list[float] = field(default_factory=list)
    rounds: int = 0
    error: str | None = None
    payload: object = None
    digest: str = ""


class SweepWorkload:
    """``run_experiment`` + ``summarize`` + ``write_records_csv`` per unit."""

    def __init__(self, name, dataset, voter_counts, policies, profile_sets,
                 pinned_digest, warm_up_voters):
        self.name = name
        self.dataset = dataset  # () -> Dataset
        self.voter_counts = voter_counts
        self.policies = policies
        self.profile_sets = profile_sets
        self.pinned_digest = pinned_digest
        self.warm_up_voters = warm_up_voters
        self.ops_per_unit = (
            len(voter_counts) * profile_sets * len(policies) * len(BEHAVIORS)
        )

    def sizes(self, ctx) -> dict:
        return {
            "m": ctx.m,
            "dataset": ctx.name,
            "dataset_rankings": ctx.total_rankings(),
            "voter_counts": self.voter_counts,
            "policies": [Policy(s, c).name for s, c in self.policies],
            "behaviors": list(BEHAVIORS),
            "profile_sets": self.profile_sets,
            "reps_per_set": 1,
            "elections_per_unit": self.ops_per_unit,
        }

    def setup(self, seed: int):
        return self.dataset()

    def warm_up(self, ds) -> None:
        """One election at the workload's candidate count, on fixed inputs."""
        rng = random.Random(DEFAULT_SEED)
        profiles = [LinearOrder(rng.sample(range(ds.m), ds.m))
                    for _ in range(self.warm_up_voters)]
        experiment.run_election(profiles, MANIPULATIVE, Policy(), rng)

    def config(self, seed: int, unit: int) -> experiment.ExperimentConfig:
        return experiment.ExperimentConfig(
            dataset=self.name,
            voter_counts=list(self.voter_counts),
            policies=list(self.policies),
            behaviors=list(BEHAVIORS),
            profile_sets=self.profile_sets,
            reps_per_set=1,
            base_seed=unit_seed(self.name, seed, unit),
            output=str(RESULTS),
            workers=1,
        )

    def execute(self, ds, seed: int, unit: int) -> UnitOutput:
        cfg = self.config(seed, unit)
        RESULTS.mkdir(parents=True, exist_ok=True)
        path = RESULTS / f"{self.name}-records.csv"
        op_s: list[float] = []
        run_election = vars(experiment)["run_election"]

        def timed_election(*args, **kwargs):
            t0 = time.process_time()
            result = run_election(*args, **kwargs)
            op_s.append(time.process_time() - t0)
            return result

        out = UnitOutput(cpu_s=0.0, planned_ops=self.ops_per_unit, op_s=op_s)
        t0 = time.process_time()
        try:
            with patched([(experiment, "run_election", timed_election)]):
                records = experiment.run_experiment(cfg, ds)
                summary = experiment.summarize(records)
                experiment.write_records_csv(records, path)
        except Exception as exc:  # a sweep that aborts fails all its elections
            out.cpu_s = time.process_time() - t0
            out.error = f"{type(exc).__name__}: {exc}"
            return out
        out.cpu_s = time.process_time() - t0
        out.rounds = sum(r.queries_issued for r in records)
        out.payload = (cfg, records, summary)
        out.digest = hashlib.sha256(path.read_bytes()).hexdigest()
        return out

    def check(self, ds, seed: int, unit: int, out: UnitOutput) -> tuple[int, list[str]]:
        """Failed elections in the unit, and why."""
        if out.error is not None:
            return out.planned_ops, [f"unit {unit} aborted: {out.error}"]
        cfg, records, summary = out.payload
        notes = []
        if len(records) != out.planned_ops:
            notes.append(f"unit {unit}: {len(records)} records, expected {out.planned_ops}")
            return out.planned_ops, notes
        if sum(row.runs for row in summary) != len(records):
            notes.append(f"unit {unit}: summary does not cover every record")
            return out.planned_ops, notes
        if seed == DEFAULT_SEED and unit == 0 and out.digest != self.pinned_digest:
            notes.append(f"unit 0: records.csv sha256 {out.digest} != pinned {self.pinned_digest}")
            return out.planned_ops, notes
        # criterion 2: a truthful election returns the full-information winner
        expected = {}
        for n in cfg.voter_counts:
            for s in range(cfg.profile_sets):
                rng = random.Random(experiment.derive_seed(cfg.base_seed, "profiles", n, s))
                expected[n, s] = borda.borda_winner(preflib.sample_profiles(ds, n, rng))
        failed = 0
        for r in records:
            winner = expected[r.n_voters, r.set_index]
            bad = r.paired_truthful_winner != winner or (
                r.behavior == TRUTHFUL and r.winner != winner
            ) or r.outcome_changed != (r.winner != r.paired_truthful_winner)
            if bad:
                failed += 1
                notes.append(f"unit {unit}: wrong winner in {r}")
        return failed, notes


class OracleWorkload:
    """``random_instance`` -> ``find_manipulation`` -> ``oracle_manipulation``."""

    name = "oracle-m6"

    def __init__(self, m: int, instances_per_unit: int):
        self.m = m
        self.ops_per_unit = instances_per_unit

    def sizes(self, ctx) -> dict:
        return {"m": self.m, "instances_per_unit": self.ops_per_unit}

    def setup(self, seed: int):
        return None

    def warm_up(self, ctx) -> None:
        p, q, pw, cj, ck = oracle.random_instance(self.m, random.Random(DEFAULT_SEED))
        manipulation.find_manipulation(p, q, pw, cj, ck)
        oracle.oracle_manipulation(p, q, pw, cj, ck)

    def execute(self, ctx, seed: int, unit: int) -> UnitOutput:
        rng = random.Random(unit_seed(self.name, seed, unit))
        clock = time.process_time
        op_s = []
        verdicts = []
        t_unit = clock()
        for _ in range(self.ops_per_unit):
            t0 = clock()
            try:
                p, q, pw, cj, ck = oracle.random_instance(self.m, rng)
                fast = manipulation.find_manipulation(p, q, pw, cj, ck)
                slow = oracle.oracle_manipulation(p, q, pw, cj, ck)
            except Exception as exc:  # counted as a failed instance
                verdicts.append(f"{type(exc).__name__}: {exc}")
                continue
            op_s.append(clock() - t0)
            verdicts.append((fast.changed, fast.distance, fast.new_order.ranking,
                             slow.changed, slow.distance))
        cpu_s = clock() - t_unit
        digest = hashlib.sha256(repr(verdicts).encode()).hexdigest()
        return UnitOutput(cpu_s=cpu_s, planned_ops=self.ops_per_unit, op_s=op_s,
                          rounds=len(op_s), payload=verdicts, digest=digest)

    def check(self, ctx, seed: int, unit: int, out: UnitOutput) -> tuple[int, list[str]]:
        """Instances that raised, or where the search and the oracle disagree."""
        failed, notes = 0, []
        for i, v in enumerate(out.payload):
            if isinstance(v, str):
                failed += 1
                notes.append(f"unit {unit} instance {i} raised {v}")
            elif (v[0], v[1]) != (v[3], v[4]):
                failed += 1
                notes.append(f"unit {unit} instance {i}: search {v[:2]} != oracle {v[3:]}")
        return failed, notes


def _sample10() -> preflib.Dataset:
    return preflib.load_soc(preflib.bundled_path("sample10"))


def _mallows(m: int, draws: int):
    """A fixed dataset of ``draws`` Mallows rankings over m candidates.

    Like ``sample10`` it is the same population at every seed; the seed
    picks the voters drawn from it.
    """

    def make() -> preflib.Dataset:
        spec = importlib.util.spec_from_file_location(
            "make_sample_data", ROOT / "demos" / "make_sample_data.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module.make_sample(f"mallows{m}", m, draws, 0.9, MALLOWS_SEED)

    return make


def make_workload(name: str, tiny: bool = False):
    """The named workload at full size, or at a tiny size for self-tests."""
    if name == "sweep-m10":
        return SweepWorkload(
            name, _sample10,
            voter_counts=[4, 5] if tiny else list(range(4, 21)),
            policies=ALL_POLICIES, profile_sets=1,
            pinned_digest=SWEEP_M10_DIGEST, warm_up_voters=4,
        )
    if name == "large-m30":
        return SweepWorkload(
            name, _mallows(30, 40 if tiny else 200),
            voter_counts=[2] if tiny else [5, 6, 7],
            policies=[("random", False), ("es", True)],
            profile_sets=1,
            pinned_digest=LARGE_M30_DIGEST, warm_up_voters=2,
        )
    if name == "oracle-m6":
        return OracleWorkload(m=6, instances_per_unit=20 if tiny else 250)
    raise ValueError(f"unknown workload {name!r}")


# sha256 of unit 0's records.csv at the default seed, full size
SWEEP_M10_DIGEST = "452c64c6fd15442b88e204a63892c2e157c7f516a1988befe7483e26291ed6bc"
LARGE_M30_DIGEST = "453fee3bb86154883219247842850c0564e9cd3b13073db47b2d69f6ff981e01"
