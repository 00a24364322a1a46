"""Self-tests of the benchmark, on tiny versions of its workloads.

    python3 -m pytest -q perfbench

They check that the metrics match ``BENCHMARK.json``, that tracing changes
neither outputs nor call counts and leaves nothing installed, and that a
failed output check makes the run fail.
"""

import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from iterborda import experiment, oracle  # noqa: E402
from iterborda.manipulation import ManipulationOutcome  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _units(entries):
    return {e["name"]: e["unit"] for e in entries}


def _measure(name, trace, seed=1):
    wl = workloads.make_workload(name, tiny=True)
    return run.measure(wl, seed, seconds=1, trace=trace, setup_samples=1)


def test_spec_lists_every_workload_and_metric():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert _units(SPEC["end_to_end"]) == dict(run.END_TO_END)
    assert _units(SPEC["per_layer"]) == dict(run.per_layer_names())


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_untraced_run_emits_end_to_end_metrics(name):
    res, metrics = _measure(name, trace=False)
    assert res["failed"] == 0, res["notes"]
    assert {k: v["unit"] for k, v in metrics.items()} == _units(SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in metrics.values())
    prov = res["provenance"]
    assert prov["workload"] == name and prov["traced"] is False
    assert {"commit", "dirty", "python", "numpy", "nproc", "seed", "sizes"} <= set(prov)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_run_repeats_counts_and_matches_untraced_digest(name):
    untraced, _ = _measure(name, trace=False)
    first, metrics = _measure(name, trace=True)
    second, _ = _measure(name, trace=True)
    assert first["failed"] == 0, first["notes"]
    assert {k: v["unit"] for k, v in metrics.items()} == _units(SPEC["per_layer"])
    # the traced run covers the first units of the untraced run at one seed
    k = min(len(first["digests"]), len(untraced["digests"]))
    assert first["digests"][:k] == untraced["digests"][:k]
    assert first["digests"] == second["digests"]
    assert {layer: s["calls"] for layer, s in first["layers"].items()} == {
        layer: s["calls"] for layer, s in second["layers"].items()
    }
    assert first["observed"] == second["observed"]
    assert first["provenance"]["traced"] is True


def test_tracer_restores_every_original():
    targets = tracer.layer_targets()
    before = [vars(owner)[attr] for owner, attr, _ in targets]
    with pytest.raises(ZeroDivisionError):
        with tracer.Tracer(targets):
            assert hasattr(experiment.run_election, "__wrapped__")
            1 / 0
    after = [vars(owner)[attr] for owner, attr, _ in targets]
    assert all(a is b for a, b in zip(before, after))
    assert not any(hasattr(fn, "__wrapped__") for fn in after)


def test_self_time_excludes_children():
    holder = types.ModuleType("holder")
    holder.leaf = lambda: sum(range(50_000))
    holder.outer = lambda: holder.leaf() + holder.leaf()
    tr = tracer.Tracer([(holder, "leaf", "t.leaf"), (holder, "outer", "t.outer")])
    with tr:
        holder.outer()
    stats = tr.layer_stats()
    assert stats["t.leaf"]["calls"] == 2 and stats["t.outer"]["calls"] == 1
    outer_total = stats["t.outer"]["us_p50"] * 1e-6
    assert 0 < stats["t.outer"]["self_s"] < outer_total
    assert stats["t.outer"]["self_s"] + stats["t.leaf"]["self_s"] == pytest.approx(outer_total)


def test_oracle_disagreement_counts_as_failure(monkeypatch):
    def wrong(p, q, pw, cj, ck, cap=8):
        return ManipulationOutcome(True, p, 99)

    monkeypatch.setattr(oracle, "oracle_manipulation", wrong)
    res, _ = _measure("oracle-m6", trace=False)
    assert res["failed"] == res["attempted"]


def test_aborted_sweep_fails_all_its_elections(monkeypatch):
    def boom(cfg, ds=None):
        raise RuntimeError("sweep aborted")

    monkeypatch.setattr(experiment, "run_experiment", boom)
    res, _ = _measure("sweep-m10", trace=False)
    assert res["failed"] == res["attempted"] > 0


def test_failed_check_exits_nonzero(monkeypatch, capsys):
    monkeypatch.setattr(workloads.OracleWorkload, "check",
                        lambda self, ctx, seed, unit, out: (1, ["forced"]))
    code = run.main(["--workload", "oracle-m6", "--seconds", "1", "--trace", "0"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1 and last["correct"] is False and last["failed"] > 0


def test_pinned_digests_at_default_seed():
    for name in ("sweep-m10", "large-m30"):
        wl = workloads.make_workload(name)
        ds = wl.setup(workloads.DEFAULT_SEED)
        out = wl.execute(ds, workloads.DEFAULT_SEED, 0)
        assert out.digest == wl.pinned_digest
        assert wl.check(ds, workloads.DEFAULT_SEED, 0, out) == (0, [])
