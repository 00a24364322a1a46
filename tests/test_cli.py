"""End-to-end tests of the command-line interface."""

import csv
import re

import pytest

from iterborda.cli import main
from iterborda.preflib import bundled_path


class TestRun:
    def test_trace_printed(self, capsys):
        rc = main([
            "run", "--dataset", str(bundled_path("sample7")),
            "--voters", "3", "--policy", "es", "--behavior", "truthful",
            "--seed", "1",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "winner: candidate" in out
        assert "round   1:" in out

    def test_careful_manipulative(self, capsys):
        rc = main([
            "run", "--dataset", str(bundled_path("sample7")),
            "--voters", "4", "--policy", "careful-random",
            "--behavior", "manipulative", "--seed", "3",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "policy=careful-random" in out and "(3 manipulated)" in out
        # each manipulated round shows the adopted ranking, which orders the
        # printed answer the same way
        rounds = re.findall(r"-> (\d+) over (\d+);.*\[manipulated, adopted ([\d >]+)\]", out)
        assert len(rounds) == 3
        for a, b, adopted in rounds:
            assert adopted.split(" > ").index(a) < adopted.split(" > ").index(b)


class TestExperiment:
    def test_writes_both_csvs(self, tmp_path, capsys):
        config = tmp_path / "sweep.cfg"
        config.write_text(
            f"dataset = {bundled_path('sample7')}\n"
            "voter_counts = 3\n"
            "policies = es, careful-random\n"
            "behaviors = truthful, manipulative\n"
            "profile_sets = 1\n"
            "reps_per_set = 1\n"
            "base_seed = 5\n",
            encoding="utf-8",
        )
        out_dir = tmp_path / "out"
        rc = main(["experiment", "--config", str(config), "--out", str(out_dir)])
        assert rc == 0
        with open(out_dir / "records.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert {row["behavior"] for row in rows} == {"truthful", "manipulative"}
        assert (out_dir / "summary.csv").exists()

    def test_missing_config_errors(self, tmp_path, capsys):
        assert main(["experiment", "--config", str(tmp_path / "nope.cfg")]) == 2
        assert_one_line_error(capsys, "cannot read config")

    def test_unreadable_config_errors(self, tmp_path, capsys):
        # a directory cannot be read as a config file
        assert main(["experiment", "--config", str(tmp_path)]) == 2
        assert_one_line_error(capsys, "cannot read config")

    @pytest.mark.parametrize(
        "text",
        [
            "voter_counts = 3\n",
            "dataset = x\nworkers = 0\n",
            "dataset x\n",
            "colour = red\n",
            "dataset = x\nvoter_counts = 4, 4\n",
        ],
    )
    def test_malformed_config_errors(self, tmp_path, capsys, text):
        config = tmp_path / "bad.cfg"
        config.write_text(text, encoding="utf-8")
        assert main(["experiment", "--config", str(config)]) == 2
        assert_one_line_error(capsys, "malformed config")

    @pytest.mark.parametrize(
        "soc, expected",
        [
            (None, "cannot read dataset"),
            (b"3: 1,2,x\n", "malformed dataset"),
            (b"\xff\xfe3\n", "malformed dataset"),
            (b"1: 1\n", "an election needs at least 2"),
        ],
    )
    def test_bad_dataset_errors_before_output(self, tmp_path, capsys, soc, expected):
        dataset = tmp_path / "data.soc"
        if soc is not None:
            dataset.write_bytes(soc)
        config = tmp_path / "sweep.cfg"
        config.write_text(f"dataset = {dataset}\n", encoding="utf-8")
        out_dir = tmp_path / "out"
        rc = main(["experiment", "--config", str(config), "--out", str(out_dir)])
        assert rc == 2
        assert_one_line_error(capsys, expected)
        assert not out_dir.exists()

    def test_out_is_a_file_errors(self, tmp_path, capsys):
        config = tmp_path / "sweep.cfg"
        config.write_text(f"dataset = {bundled_path('sample7')}\n", encoding="utf-8")
        out = tmp_path / "taken"
        out.write_text("not a directory", encoding="utf-8")
        assert main(["experiment", "--config", str(config), "--out", str(out)]) == 2
        assert_one_line_error(capsys, "cannot create output directory")
        assert out.read_text(encoding="utf-8") == "not a directory"


def assert_one_line_error(capsys, expected):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert expected in captured.err


class TestBadInput:
    @staticmethod
    def run_with_dataset(path):
        return main([
            "run", "--dataset", str(path), "--voters", "3",
            "--policy", "es", "--behavior", "truthful",
        ])

    def test_missing_dataset(self, tmp_path, capsys):
        assert self.run_with_dataset(tmp_path / "nope.soc") == 2
        assert_one_line_error(capsys, "No such file or directory")

    def test_malformed_dataset(self, tmp_path, capsys):
        path = tmp_path / "bad.soc"
        path.write_text("3: 1,2,x\n", encoding="utf-8")
        assert self.run_with_dataset(path) == 2
        assert_one_line_error(capsys, "malformed dataset")

    def test_dataset_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "bad.soc"
        path.write_bytes(b"\xff\xfe3\n")
        assert self.run_with_dataset(path) == 2
        assert_one_line_error(capsys, "malformed dataset")

    def test_single_candidate_dataset(self, tmp_path, capsys):
        path = tmp_path / "one.soc"
        path.write_text("1: 1\n", encoding="utf-8")
        assert self.run_with_dataset(path) == 2
        assert_one_line_error(capsys, "ranks 1 candidate; an election needs at least 2")

    def test_no_voters(self, capsys):
        rc = main([
            "run", "--dataset", str(bundled_path("sample7")), "--voters", "0",
            "--policy", "es", "--behavior", "truthful",
        ])
        assert rc == 2
        assert_one_line_error(capsys, "--voters must be at least 1, got 0")
