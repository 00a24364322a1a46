"""The iterborda benchmark: one workload per call, end-to-end or traced.

    python3 perfbench/run.py --workload sweep-m10 --seed 0 --seconds 35 --trace 0

Run from the repository root.  An untraced run (``--trace 0``) repeats whole
units of work until ``--seconds`` of wall time have passed, checks every
unit's output and prints the end-to-end metrics; between units it times a
cold set-up of the workload in a child process, several times per run.
Every reported time is CPU time (``time.process_time``) of the process
that did the work.  A traced run (``--trace 1``) does a fixed amount of work
(the first units of the untraced run at the same seed), once plain and once
with every reported layer wrapped, so that call counts repeat exactly; it
prints the per-layer metrics.  The last line of standard output is one JSON
object
``{"correct", "attempted", "failed", "metrics"}``; the full result, with
provenance, goes to ``perfbench/results/``.  The exit code is 1 when an
output check fails and 2 when the package source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from math import inf
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("sweep-m10", "large-m30", "oracle-m6")
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60
# Units per traced run: sized so that the spans of one run fit in memory.
TRACE_UNITS = {"sweep-m10": 1, "large-m30": 1, "oracle-m6": 4}

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("rounds_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
]

STAT_UNITS = {"calls": "count", "self_s": "s", "us_p50": "us"}
LAYER_STATS = [
    ("center.apply_response", ("calls", "self_s", "us_p50")),
    ("center.necessary_winner", ("calls", "self_s")),
    ("center.select_query", ("calls", "self_s", "us_p50")),
    ("center.run_election", ("self_s",)),
    ("borda.pair_diff_matrix", ("calls", "self_s", "us_p50")),
    ("borda.possible_winners_from_total", ("calls", "self_s")),
    ("borda.necessary_winner_from_total", ("calls", "self_s")),
    ("borda.score_bounds_vectors", ("calls", "self_s")),
    ("prefs.add_preference", ("calls", "self_s", "us_p50")),
    ("prefs.swap_distance", ("calls", "self_s")),
    ("prefs.LinearOrder", ("calls", "self_s")),
    ("prefs.close", ("calls", "self_s")),
    ("manipulation.find_manipulation", ("calls", "self_s", "us_p50")),
    ("voter.respond", ("calls", "self_s")),
    ("oracle.enumerate_extensions", ("calls", "self_s")),
    ("oracle.oracle_manipulation", ("self_s",)),
    ("oracle.random_instance", ("self_s",)),
    ("experiment.run_experiment", ("self_s",)),
    ("experiment.summarize", ("self_s",)),
    ("experiment.write_records_csv", ("self_s",)),
    ("preflib.sample_profiles", ("calls", "self_s")),
]
# ratio name -> (layer whose observed results are summed, unit)
LAYER_RATIOS = {
    "manipulation.precheck_pass_ratio": ("manipulation.precheck", "ratio"),
    "manipulation.changed_ratio": ("manipulation.find_manipulation", "ratio"),
    "oracle.extensions_per_call": ("oracle.enumerate_extensions", "count"),
}


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric a traced run prints, with its unit."""
    names = [
        (f"{layer}.{stat}", STAT_UNITS[stat])
        for layer, stats in LAYER_STATS
        for stat in stats
    ]
    names += [(name, unit) for name, (_, unit) in LAYER_RATIOS.items()]
    names.append(("trace.overhead_ratio", "ratio"))
    return names


def provenance(workload: str, seed: int, seconds: int, traced: bool, sizes: dict) -> dict:
    commit = dirty = None
    if (ROOT / ".git").exists():
        def git(*args):
            return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30).stdout.strip()

        commit = git("rev-parse", "HEAD") or None
        dirty = bool(git("status", "--porcelain"))
    return {
        "commit": commit,
        "dirty": dirty,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "traced": traced,
        "sizes": sizes,
    }


def probe_setup(workload: str, seed: int) -> float:
    """Seconds one cold set-up takes, measured in a fresh child process."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), "--workload", workload,
         "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def timed_run(wl, ctx, seed: int, seconds: int, setup_samples: int) -> dict:
    """Whole units until the time is spent; end-to-end metrics and checks.

    The set-up probes are spread evenly over the run, between units, so that
    their median does not hinge on one moment of a host whose speed drifts.
    Their time does not count towards ``seconds``.
    """
    units = failed = attempted = rounds = 0
    busy = spent = 0.0
    op_s = array("d")  # 8 bytes a sample, so that peak RSS hardly grows with speed
    setup_s: list[float] = []
    notes: list[str] = []
    digests: list[str] = []
    while units == 0 or spent < seconds:
        if len(setup_s) < setup_samples and spent >= len(setup_s) * seconds / setup_samples:
            setup_s.append(probe_setup(wl.name, seed))
        t0 = time.perf_counter()
        out = wl.execute(ctx, seed, units)
        bad, why = wl.check(ctx, seed, units, out)
        spent += time.perf_counter() - t0
        units += 1
        busy += out.cpu_s
        attempted += out.planned_ops
        failed += bad
        notes += why
        rounds += out.rounds
        op_s.extend(out.op_s)
        digests.append(out.digest)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(setup_s) < setup_samples:
        setup_s.append(probe_setup(wl.name, seed))
    ops = len(op_s)
    p50, p90 = np.quantile(np.frombuffer(op_s), [0.5, 0.9]) * 1e3 if ops else (inf, inf)
    return {
        "units": units,
        "attempted": attempted,
        "failed": failed,
        "notes": notes,
        "samples": ops,
        "rounds": rounds,
        "busy_cpu_s": busy,
        "wall_s": spent,
        "setup_samples_s": setup_s,
        "digests": digests,
        "metrics": {
            "setup_s": statistics.median(setup_s),
            "ops_per_s": ops / busy,
            "rounds_per_s": rounds / busy,
            "op_ms_p50": p50,
            "op_ms_p90": p90,
            "peak_rss_mb": peak_rss_mb,
        },
    }


def traced_run(wl, ctx, seed: int, spans_path: Path) -> dict:
    """The first TRACE_UNITS units, plain then traced; per-layer metrics."""
    from tracer import Tracer

    n_units = TRACE_UNITS[wl.name]
    plain = [wl.execute(ctx, seed, k) for k in range(n_units)]
    tracer = Tracer()
    with tracer:
        traced = [wl.execute(ctx, seed, k) for k in range(n_units)]
    failed = attempted = 0
    notes: list[str] = []
    for k, (a, b) in enumerate(zip(plain, traced)):
        for out in (a, b):
            bad, why = wl.check(ctx, seed, k, out)
            attempted += out.planned_ops
            failed += bad
            notes += why
        if a.digest != b.digest:
            failed += b.planned_ops
            notes.append(f"unit {k}: traced digest {b.digest} != untraced {a.digest}")
    stats = tracer.layer_stats()
    empty = {"calls": 0, "self_s": 0.0, "us_p50": 0.0}
    metrics = {
        f"{layer}.{stat}": stats.get(layer, empty)[stat]
        for layer, wanted in LAYER_STATS
        for stat in wanted
    }
    for name, (layer, _) in LAYER_RATIOS.items():
        calls = stats.get(layer, empty)["calls"]
        metrics[name] = tracer.observed.get(layer, 0) / calls if calls else 0.0
    plain_s = sum(o.cpu_s for o in plain)
    traced_s = sum(o.cpu_s for o in traced)
    metrics["trace.overhead_ratio"] = traced_s / plain_s - 1
    tracer.save(spans_path)
    return {
        "units": n_units,
        "attempted": attempted,
        "failed": failed,
        "notes": notes,
        "spans": len(tracer.start),
        "plain_cpu_s": plain_s,
        "traced_cpu_s": traced_s,
        "digests": [o.digest for o in traced],
        "layers": stats,
        "observed": dict(tracer.observed),
        "metrics": metrics,
    }


def measure(wl, seed: int, seconds: int, trace: bool,
            setup_samples: int = SETUP_SAMPLES) -> tuple[dict, dict]:
    """Run one workload; return the full result and the printed metrics."""
    import workloads

    ctx = wl.setup(seed)
    wl.warm_up(ctx)
    workloads.RESULTS.mkdir(parents=True, exist_ok=True)
    if trace:
        spans = workloads.RESULTS / f"{wl.name}-seed{seed}.spans.npz"
        res = traced_run(wl, ctx, seed, spans)
        units = dict(per_layer_names())
    else:
        res = timed_run(wl, ctx, seed, seconds, setup_samples)
        units = dict(END_TO_END)
    metrics = {
        name: {"value": res["metrics"][name], "unit": unit} for name, unit in units.items()
    }
    res["error_rate"] = res["failed"] / res["attempted"]
    res["provenance"] = provenance(wl.name, seed, seconds, trace, wl.sizes(ctx))
    return res, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "iterborda" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    wl = workloads.make_workload(args.workload)
    res, metrics = measure(wl, args.seed, args.seconds, bool(args.trace))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (workloads.RESULTS / f"{tag}.json").write_text(json.dumps(res, indent=1, default=str))

    print(f"{args.workload} seed={args.seed} {'traced' if args.trace else 'untraced'}: "
          f"{res['units']} units, {res['attempted']} ops attempted, {res['failed']} failed")
    for note in res["notes"][:20]:
        print(f"  CHECK FAILED {note}")
    if not args.trace:
        print(f"  setup_s median of {len(res['setup_samples_s'])}; op_ms_p50 and "
              f"op_ms_p90 over {res['samples']} ops; {res['rounds']} rounds in "
              f"{res['busy_cpu_s']:.3f} CPU s")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'error_rate':<40} {res['error_rate']:>14.6g} failed/attempted")
    correct = res["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
