"""Regenerate the bundled .soc sample files.

The package ships two synthetic preference samples in iterborda/data/ so the
tests, demos and the acceptance sweep run offline.  Each is drawn from a
single Mallows model centred on the identity ranking ``0, 1, ..., m-1``
(repeated-insertion sampling), which gives the moderately correlated
rankings typical of real preference data; drop real
PrefLib .soc files next to them if you want to rerun the experiments on
actual survey data.

Run from the repository root:  python demos/make_sample_data.py
"""

import random
from collections import Counter
from pathlib import Path

from iterborda.preflib import Dataset, serialize_soc
from iterborda.prefs import LinearOrder

OUT_DIR = Path(__file__).resolve().parent.parent / "src" / "iterborda" / "data"


def mallows_draw(center: list[int], phi: float, rng: random.Random) -> tuple[int, ...]:
    """One ranking from a Mallows distribution by repeated insertion."""
    out: list[int] = []
    for i, item in enumerate(center):
        weights = [phi ** (i - j) for j in range(i + 1)]
        out.insert(rng.choices(range(i + 1), weights=weights)[0], item)
    return tuple(out)


def make_sample(name: str, m: int, draws: int, phi: float, seed: int) -> Dataset:
    rng = random.Random(seed)
    counts = Counter(mallows_draw(list(range(m)), phi, rng) for _ in range(draws))
    entries = [
        (LinearOrder(ranking), count)
        for ranking, count in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    ]
    meta = [
        f"# {name}: synthetic strict-order sample, {m} candidates, {draws} rankings",
        f"# Mallows model, dispersion phi={phi}, seed={seed}",
    ]
    return Dataset(name=name, m=m, entries=entries, metadata=meta)


def main():
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    # sample10 mimics heterogeneous real-world survey data (weak single-peak
    # consensus); sample7 is a smaller, more concentrated set for demos and
    # fast tests
    for name, m, draws, phi, seed in [
        ("sample10", 10, 500, 0.9, 20240501),
        ("sample7", 7, 200, 0.7, 20240502),
    ]:
        ds = make_sample(name, m, draws, phi, seed)
        path = OUT_DIR / f"{name}.soc"
        path.write_text(serialize_soc(ds), encoding="utf-8")
        print(f"wrote {path} ({len(ds.entries)} distinct rankings, "
              f"{ds.total_rankings()} total)")


if __name__ == "__main__":
    main()
