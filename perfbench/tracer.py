"""Out-of-program tracing for the iterborda benchmark.

The tracer replaces chosen functions and methods with thin wrappers for the
duration of a ``with`` block and records one span per call: layer name,
start, end and the index of the enclosing span.  Several modules bind
``from``-imported names, so a function is wrapped in the namespace of each
module that calls it, not only where it is defined; every wrapper of one
function reports under one layer name.  Spans stay in memory (compact
arrays) until the block ends; self time is derived from them afterwards.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager
from typing import Callable

import numpy as np


@contextmanager
def patched(replacements):
    """Install ``(owner, attribute, new_value)`` replacements, restore on exit.

    Restores the exact original objects even when the body raises, and
    checks afterwards that every owner holds its original again.
    """
    originals = []
    try:
        for owner, attr, value in replacements:
            originals.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)
        for owner, attr, original in originals:
            if vars(owner)[attr] is not original:
                raise RuntimeError(f"could not restore {owner!r}.{attr}")


def layer_targets():
    """Every (owner, attribute, layer name) the traced run wraps.

    Only the layers the benchmark reports are wrapped, plus ``precheck`` for
    its pass ratio; the time of unwrapped helpers (invariant checks,
    constructors, the pivot scan's predicates) stays in the self time of the
    layer that calls them.  The layer name is ``<defining module>.<function>``;
    a method is named after its module and method, a class after its
    constructor.
    """
    from iterborda import center, experiment, manipulation, oracle, prefs, voter

    return [
        # experiment harness; the benchmark calls these through the module
        (experiment, "run_experiment", "experiment.run_experiment"),
        (experiment, "summarize", "experiment.summarize"),
        (experiment, "write_records_csv", "experiment.write_records_csv"),
        (experiment, "sample_profiles", "preflib.sample_profiles"),
        (experiment, "run_election", "center.run_election"),
        # voting center
        (center.CenterState, "select_query", "center.select_query"),
        (center.CenterState, "apply_response", "center.apply_response"),
        (center.CenterState, "necessary_winner", "center.necessary_winner"),
        (center, "pair_diff_matrix", "borda.pair_diff_matrix"),
        (center, "possible_winners_from_total", "borda.possible_winners_from_total"),
        (center, "necessary_winner_from_total", "borda.necessary_winner_from_total"),
        (center, "score_bounds_vectors", "borda.score_bounds_vectors"),
        (center, "add_preference", "prefs.add_preference"),
        # voters
        (voter.VoterState, "respond", "voter.respond"),
        (voter, "find_manipulation", "manipulation.find_manipulation"),
        (voter, "add_preference", "prefs.add_preference"),
        # manipulation search; find_manipulation is also called from the
        # benchmark's oracle loop through the module
        (manipulation, "find_manipulation", "manipulation.find_manipulation"),
        (manipulation, "precheck", "manipulation.precheck"),
        (manipulation, "swap_distance", "prefs.swap_distance"),
        # brute-force oracle
        (oracle, "random_instance", "oracle.random_instance"),
        (oracle, "oracle_manipulation", "oracle.oracle_manipulation"),
        (oracle, "enumerate_extensions", "oracle.enumerate_extensions"),
        (oracle, "swap_distance", "prefs.swap_distance"),
        (oracle, "add_preference", "prefs.add_preference"),
        (oracle, "close", "prefs.close"),
        # preference primitives: close() calls add_preference in its own module
        (prefs, "add_preference", "prefs.add_preference"),
        (prefs.LinearOrder, "__init__", "prefs.LinearOrder"),
    ]


# Results whose value is summed per layer, for the useful-work ratios.
OBSERVERS: dict[str, Callable[[object], int]] = {
    "manipulation.precheck": lambda passed: int(bool(passed)),
    "manipulation.find_manipulation": lambda outcome: int(outcome.changed),
    "oracle.enumerate_extensions": len,
}


class Tracer:
    """Records spans for every target while used as a context manager."""

    def __init__(self, targets=None):
        self.targets = layer_targets() if targets is None else targets
        self.layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.observed: dict[str, int] = {}
        self._stack: list[int] = []
        self._patch = None

    def _layer_id(self, name: str) -> int:
        if name not in self._layer_ids:
            self._layer_ids[name] = len(self.layers)
            self.layers.append(name)
        return self._layer_ids[name]

    def _wrap(self, fn, name: str):
        layer_id = self._layer_id(name)
        observe = OBSERVERS.get(name)
        layer, parent, start, end = self.layer, self.parent, self.start, self.end
        stack, observed, clock = self._stack, self.observed, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(start)
            layer.append(layer_id)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                observed[name] = observed.get(name, 0) + observe(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def __enter__(self):
        replacements = [
            (owner, attr, self._wrap(vars(owner)[attr], name))
            for owner, attr, name in self.targets
        ]
        self._patch = patched(replacements)
        self._patch.__enter__()
        return self

    def __exit__(self, *exc):
        patch, self._patch = self._patch, None
        return patch.__exit__(*exc)

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, total self time (s) and median call time (us)."""
        layer = np.frombuffer(self.layer, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64
        )
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        self_time = dur - child
        stats = {}
        for layer_id, name in enumerate(self.layers):
            mask = layer == layer_id
            calls = int(mask.sum())
            stats[name] = {
                "calls": calls,
                "self_s": float(self_time[mask].sum()),
                "us_p50": float(np.median(dur[mask]) * 1e6) if calls else 0.0,
            }
        return stats

    def save(self, path) -> None:
        """Write the spans out, one array per field plus the layer names."""
        np.savez_compressed(
            path,
            layers=np.array(self.layers),
            layer=np.frombuffer(self.layer, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
