"""Strict-order election data: parsing, serialization, profile sampling.

File format (one complete strict ranking per line, PrefLib SOC style):

    # any metadata line, captured verbatim
    2: 1,3,2
    1: 3,2,1

Data lines are ``COUNT: c1,c2,...,cm`` where the labels are 1-based integers
forming a complete permutation; the label set of the first data line fixes the
candidate set and labels are mapped densely onto ids 0..m-1 in ascending
label order.  Ties and truncated rankings are rejected.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .prefs import LinearOrder


class ParseError(ValueError):
    """Malformed election data; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass
class Dataset:
    """A bag of complete strict rankings with multiplicities."""

    name: str
    m: int
    entries: list[tuple[LinearOrder, int]]
    metadata: list[str] = field(default_factory=list)

    def total_rankings(self) -> int:
        return sum(count for _, count in self.entries)


def parse_soc(text: str, name: str = "dataset") -> Dataset:
    """Parse strict-complete-order data from ``text``."""
    metadata: list[str] = []
    entries: list[tuple[LinearOrder, int]] = []
    labels: list[int] | None = None
    label_to_id: dict[int, int] = {}

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            metadata.append(line)
            continue
        head, sep, tail = line.partition(":")
        if not sep:
            raise ParseError(line_no, "expected 'COUNT: c1,c2,...'")
        try:
            count = int(head.strip())
        except ValueError:
            raise ParseError(line_no, f"multiplicity {head.strip()!r} is not an integer")
        if count < 1:
            raise ParseError(line_no, f"multiplicity must be positive, got {count}")
        try:
            ranked = [int(tok.strip()) for tok in tail.split(",")]
        except ValueError:
            raise ParseError(line_no, "candidate labels must be integers")
        if len(set(ranked)) != len(ranked):
            raise ParseError(line_no, "duplicate candidate in ranking")
        if labels is None:
            labels = sorted(ranked)
            label_to_id = {lab: i for i, lab in enumerate(labels)}
        if sorted(ranked) != labels:
            raise ParseError(
                line_no,
                f"ranking must be a complete order over labels {labels}",
            )
        entries.append((LinearOrder(label_to_id[lab] for lab in ranked), count))

    if labels is None:
        raise ParseError(1, "no data lines found")
    return Dataset(name=name, m=len(labels), entries=entries, metadata=metadata)


def serialize_soc(ds: Dataset) -> str:
    """Inverse of :func:`parse_soc` on the data entries (labels re-based to 1)."""
    lines = list(ds.metadata)
    for order, count in ds.entries:
        lines.append(f"{count}: " + ",".join(str(c + 1) for c in order.ranking))
    return "\n".join(lines) + "\n"


def load_soc(path: str | Path) -> Dataset:
    path = Path(path)
    # utf-8-sig drops the byte-order mark some editors save, and reads UTF-8 otherwise
    return parse_soc(path.read_text(encoding="utf-8-sig"), name=path.stem)


def bundled(name: str) -> Dataset:
    """Load one of the sample datasets shipped with the package.

    Available: ``sample10`` (10 candidates) and ``sample7`` (7 candidates).
    """
    return load_soc(bundled_path(name))


def bundled_path(name: str) -> Path:
    """Filesystem path of a bundled sample (for CLI/config use)."""
    return Path(str(resources.files("iterborda").joinpath("data", f"{name}.soc")))


def sample_profiles(ds: Dataset, n: int, rng: random.Random) -> list[LinearOrder]:
    """Draw ``n`` rankings with replacement, weighted by multiplicity."""
    if n < 1:
        raise ValueError("need at least one voter")
    if not ds.entries:
        raise ValueError("dataset has no rankings")
    orders = [order for order, _ in ds.entries]
    weights = [count for _, count in ds.entries]
    return rng.choices(orders, weights=weights, k=n)
