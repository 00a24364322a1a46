"""Tests for the experiment harness: seeding, pairing, records, CSV."""

import random

import pytest

from iterborda.center import POLICIES, Policy, run_election
from iterborda.experiment import (
    ExperimentConfig,
    RunRecord,
    SummaryRow,
    derive_seed,
    load_config,
    parse_config,
    run_experiment,
    summarize,
    write_records_csv,
    write_summary_csv,
)
from iterborda.preflib import bundled, bundled_path, sample_profiles
from iterborda.voter import MANIPULATIVE, TRUTHFUL


def tiny_config(**overrides):
    kwargs = dict(
        dataset=str(bundled_path("sample7")),
        voter_counts=[3],
        policies=[Policy("es"), Policy("random", True)],
        behaviors=[TRUTHFUL, MANIPULATIVE],
        profile_sets=1,
        reps_per_set=1,
        base_seed=7,
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


class TestConfig:
    def test_parse_full(self):
        cfg = parse_config(
            """
            # sweep settings
            dataset = data/sample.soc
            voter_counts = 4, 5, 6
            policies = es, careful-random
            behaviors = truthful, manipulative
            profile_sets = 5
            reps_per_set = 10
            base_seed = 99
            output = out
            workers = 2
            """
        )
        assert cfg.dataset == "data/sample.soc"
        assert cfg.voter_counts == [4, 5, 6]
        assert cfg.policies == [Policy("es"), Policy("random", True)]
        assert cfg.behaviors == [TRUTHFUL, MANIPULATIVE]
        assert (cfg.profile_sets, cfg.reps_per_set) == (5, 10)
        assert (cfg.base_seed, cfg.output, cfg.workers) == (99, "out", 2)

    def test_defaults(self):
        cfg = parse_config("dataset = d.soc\n")
        assert (cfg.profile_sets, cfg.reps_per_set) == (20, 40)
        assert cfg.voter_counts == list(range(4, 21)) + list(range(30, 101, 10))
        assert len(cfg.policies) == 4
        assert cfg.behaviors == [TRUTHFUL, MANIPULATIVE]

    def test_unknown_key(self):
        with pytest.raises(ValueError):
            parse_config("dataset = d\ncolor = red\n")

    def test_missing_required(self):
        with pytest.raises(ValueError):
            parse_config("voter_counts = 1\npolicies = es\nbehaviors = truthful\n")

    def test_bad_policy(self):
        with pytest.raises(ValueError):
            parse_config("dataset = d\npolicies = snake\n")

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            tiny_config(voter_counts=[0])
        with pytest.raises(ValueError):
            tiny_config(profile_sets=0)
        with pytest.raises(ValueError):
            tiny_config(behaviors=["psychic"])

    @pytest.mark.parametrize("name", ["voter_counts", "policies", "behaviors"])
    def test_empty_coordinates_rejected(self, name):
        with pytest.raises(ValueError, match=f"{name} must not be empty"):
            tiny_config(**{name: []})

    def test_repeated_key_rejected(self):
        with pytest.raises(ValueError, match="config line 2: key 'dataset' given twice"):
            parse_config("dataset = a.soc\ndataset = b.soc\nworkers = 1\nworkers = 3\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "dataset = d\n# comment\nworkers = 2 # two\n",
                "config line 3: workers must be an integer, got '2 # two'",
            ),
            (
                "dataset = d\nvoter_counts = 4, five, 6\n",
                "config line 2: voter_counts must list integers, got 'five'",
            ),
            (
                "profile_sets = x\ndataset = d\n",
                "config line 1: profile_sets must be an integer, got 'x'",
            ),
            (
                "dataset = d\nreps_per_set = 1.5\n",
                "config line 2: reps_per_set must be an integer, got '1.5'",
            ),
            ("dataset = d\nbase_seed =\n", "config line 2: base_seed must be an integer, got ''"),
        ],
        ids=["workers", "voter_counts", "profile_sets", "reps_per_set", "base_seed"],
    )
    def test_unparsable_integer_names_line_and_key(self, text, message):
        with pytest.raises(ValueError) as excinfo:
            parse_config(text)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "line, message",
        [
            ("profile_sets = 0", "profile_sets must be >= 1, got 0"),
            ("reps_per_set = -1", "reps_per_set must be >= 1, got -1"),
            ("voter_counts = 4, 0", "voter counts must be >= 1"),
            ("behaviors = psychic", "unknown behavior 'psychic'"),
            ("policies = greedy", "unknown policy 'greedy'"),
        ],
        ids=["profile_sets", "reps_per_set", "voter_counts", "behaviors", "policies"],
    )
    def test_invalid_value_names_line(self, line, message):
        with pytest.raises(ValueError) as excinfo:
            parse_config(f"dataset = d\n\n{line}\n")
        assert str(excinfo.value).startswith(f"config line 3: {message}")

    def test_byte_order_mark_ignored(self, tmp_path):
        text = "dataset = d.soc\nvoter_counts = 4, 5\nworkers = 2\n"
        plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
        plain.write_text(text, encoding="utf-8")
        marked.write_text("\ufeff" + text, encoding="utf-8")
        assert load_config(marked) == load_config(plain) == parse_config(text)

    def test_policy_pairs_become_policies(self):
        # the benchmark still passes (selector, careful) pairs
        cfg = tiny_config(policies=[("es", False), ("random", True)])
        assert cfg.policies == [Policy("es"), Policy("random", True)]
        assert run_experiment(cfg) == run_experiment(tiny_config())
        with pytest.raises(ValueError, match="selector"):
            tiny_config(policies=[("greedy", False)])
        with pytest.raises(ValueError, match="careful must be a bool, got 1"):
            tiny_config(policies=[("es", 1)])

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(ValueError, match="workers"):
            tiny_config(workers=workers)
        message = f"^config line 2: workers must be >= 1, got {workers}$"
        with pytest.raises(ValueError, match=message):
            parse_config(f"dataset = d\nworkers = {workers}\n")

    @pytest.mark.parametrize(
        "key, value, repeated",
        [
            ("voter_counts", "4, 5, 4", "[4]"),
            ("policies", "es, careful-es, ES, careful-es", "['es', 'careful-es']"),
            ("behaviors", "truthful, truthful", "['truthful']"),
        ],
    )
    def test_repeated_coordinates_rejected(self, key, value, repeated):
        with pytest.raises(ValueError) as excinfo:
            parse_config(f"dataset = d\n{key} = {value}\n")
        assert str(excinfo.value) == f"config line 2: {key} lists {repeated} more than once"


class TestDeriveSeed:
    def test_stable_and_sensitive(self):
        assert derive_seed(1, "run", 4) == derive_seed(1, "run", 4)
        assert derive_seed(1, "run", 4) != derive_seed(1, "run", 5)
        assert derive_seed(1, "run", 4) != derive_seed(2, "run", 4)

    def test_frozen_value(self):
        # catches accidental changes to the derivation scheme
        assert derive_seed(0, "profiles", 4, 0) == 16338065710048506327


class TestRunExperiment:
    def test_record_count(self):
        records = run_experiment(tiny_config())
        # 1 voter count x 1 set x 1 rep x 2 policies x 2 behaviors
        assert len(records) == 4

    def test_truthful_records_are_clean(self):
        for rec in run_experiment(tiny_config(behaviors=[TRUTHFUL])):
            assert rec.manipulated_count == 0
            assert not rec.outcome_changed
            assert rec.winner == rec.paired_truthful_winner
            assert 0 < rec.queries_issued <= rec.max_queries

    def test_one_behaviour_sweep_keeps_its_records(self):
        # a manipulative-only sweep still runs each truthful twin, then drops its records
        both = run_experiment(tiny_config(reps_per_set=3))
        for behavior in (TRUTHFUL, MANIPULATIVE):
            alone = run_experiment(tiny_config(reps_per_set=3, behaviors=[behavior]))
            assert alone == [rec for rec in both if rec.behavior == behavior]
        assert any(rec.manipulated_count for rec in alone)

    def test_outcome_changed_consistency(self):
        for rec in run_experiment(tiny_config(reps_per_set=4)):
            assert rec.outcome_changed == (rec.winner != rec.paired_truthful_winner)
            assert 0 <= rec.manipulated_count <= rec.queries_issued

    @pytest.mark.parametrize(
        "workers, voter_counts, profile_sets, pool_size",
        [(3, [3], 1, None), (3, [3, 4], 1, 2), (2, [3, 4], 2, 2), (1, [3, 4], 2, None)],
    )
    def test_pool_starts_no_more_workers_than_cells(
        self, monkeypatch, workers, voter_counts, profile_sets, pool_size
    ):
        pools = []

        class InProcessPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InProcessPool)
        grid = dict(voter_counts=voter_counts, profile_sets=profile_sets)
        records = run_experiment(tiny_config(workers=workers, **grid))
        assert pools == ([] if pool_size is None else [pool_size])
        assert records == run_experiment(tiny_config(**grid))

    @pytest.mark.parametrize("dataset", ["sample7", "sample10"])
    def test_truthful_twin_resumed_from_fork_equals_scratch_run(self, dataset):
        ds = bundled(dataset)
        for n in (1, 3, 5, 9):
            for seed in range(10):
                profiles = sample_profiles(
                    ds, n, random.Random(derive_seed("fork-test", dataset, n, seed))
                )
                for policy in POLICIES:
                    run_seed = derive_seed("fork-test", seed, policy.name)
                    manip = run_election(profiles, MANIPULATIVE, policy, random.Random(run_seed))
                    resumed_rng, scratch_rng = random.Random(run_seed), random.Random(run_seed)
                    resumed = run_election(profiles, TRUTHFUL, policy, resumed_rng, twin=manip)
                    scratch = run_election(profiles, TRUTHFUL, policy, scratch_rng)
                    assert resumed == scratch
                    assert resumed_rng.getstate() == scratch_rng.getstate()


class TestSummaries:
    def test_fraction_and_ratio_math(self):
        records = run_experiment(tiny_config(reps_per_set=3))
        rows = summarize(records)
        assert {(r.policy, r.careful, r.behavior) for r in rows} == {
            ("es", False, TRUTHFUL),
            ("es", False, MANIPULATIVE),
            ("random", True, TRUTHFUL),
            ("random", True, MANIPULATIVE),
        }
        for row in rows:
            assert row.runs == 3
            assert 0.0 <= row.mean_manipulation_ratio <= 1.0
            assert 0.0 <= row.mean_outcome_changed <= 1.0
            assert 0.0 < row.mean_fraction_queried <= 1.0
            if row.behavior == TRUTHFUL:
                assert row.mean_manipulation_ratio == 0.0
                assert row.mean_outcome_changed == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])


# the exact headers documented in README.md
RECORDS_HEADER = (
    "dataset,policy,careful,behavior,n_voters,set_index,rep_index,"
    "queries_issued,max_queries,manipulated_count,winner,"
    "paired_truthful_winner,outcome_changed"
)
SUMMARY_HEADER = (
    "dataset,policy,careful,behavior,n_voters,runs,"
    "mean_manipulation_ratio,mean_outcome_changed,mean_fraction_queried"
)


class TestCsv:
    def test_exact_header_and_byte_determinism(self, tmp_path):
        records = run_experiment(tiny_config(reps_per_set=2))
        path_a = tmp_path / "a.csv"
        path_b = tmp_path / "b.csv"
        write_records_csv(records, path_a)
        write_records_csv(run_experiment(tiny_config(reps_per_set=2)), path_b)
        text = path_a.read_text(encoding="utf-8")
        assert text.splitlines()[0] == RECORDS_HEADER
        assert text == path_b.read_text(encoding="utf-8")
        assert len(text.splitlines()) == len(records) + 1

    def test_cells_follow_field_types(self, tmp_path):
        record = RunRecord("d", "es", True, TRUTHFUL, 3, 0, 1, 5, 9, 0, 2, 2, False)
        row = SummaryRow("d", "random", False, MANIPULATIVE, 3, 4, 0.125, 0.0, 2 / 3)
        write_records_csv([record], tmp_path / "records.csv")
        write_summary_csv([row], tmp_path / "summary.csv")
        records = (tmp_path / "records.csv").read_text(encoding="utf-8").splitlines()
        summary = (tmp_path / "summary.csv").read_text(encoding="utf-8").splitlines()
        assert records[1] == "d,es,true,truthful,3,0,1,5,9,0,2,2,false"
        assert summary[1] == "d,random,false,manipulative,3,4,0.125000,0.000000,0.666667"

    def test_summary_written(self, tmp_path):
        records = run_experiment(tiny_config())
        write_summary_csv(summarize(records), tmp_path / "summary.csv")
        lines = (tmp_path / "summary.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == SUMMARY_HEADER
        assert len(lines) == 5
