"""Tests for strict-order data parsing, serialization, and sampling."""

import math
import random
from collections import Counter

import pytest

from iterborda.preflib import (
    Dataset,
    ParseError,
    bundled,
    bundled_path,
    load_soc,
    parse_soc,
    sample_profiles,
    serialize_soc,
)
from iterborda.prefs import LinearOrder

SAMPLE = "# ALTERNATIVE NAME 1: x\n2: 1,2,3\n1: 3,2,1\n"


class TestParseSoc:
    def test_basic(self):
        ds = parse_soc(SAMPLE, name="tiny")
        assert ds.m == 3
        assert ds.metadata == ["# ALTERNATIVE NAME 1: x"]
        assert ds.entries == [
            (LinearOrder([0, 1, 2]), 2),
            (LinearOrder([2, 1, 0]), 1),
        ]
        assert ds.total_rankings() == 3

    def test_labels_mapped_densely(self):
        ds = parse_soc("1: 30,10,20\n")
        # ascending labels 10,20,30 become ids 0,1,2
        assert ds.entries[0][0] == LinearOrder([2, 0, 1])

    def test_duplicate_candidate(self):
        with pytest.raises(ParseError) as err:
            parse_soc("1: 1,1,2\n")
        assert err.value.line_no == 1
        assert "duplicate" in str(err.value)

    def test_incomplete_order(self):
        with pytest.raises(ParseError) as err:
            parse_soc("1: 1,2,3\n1: 1,2\n")
        assert err.value.line_no == 2

    def test_inconsistent_label_set(self):
        with pytest.raises(ParseError):
            parse_soc("1: 1,2,3\n1: 1,2,4\n")

    def test_bad_multiplicity(self):
        with pytest.raises(ParseError):
            parse_soc("zero: 1,2\n")
        with pytest.raises(ParseError):
            parse_soc("0: 1,2\n")
        with pytest.raises(ParseError):
            parse_soc("-3: 1,2\n")

    def test_bad_label(self):
        with pytest.raises(ParseError):
            parse_soc("1: 1,two\n")

    def test_missing_separator(self):
        with pytest.raises(ParseError) as err:
            parse_soc("1,2,3\n")
        assert err.value.line_no == 1

    def test_no_data(self):
        with pytest.raises(ParseError):
            parse_soc("# only metadata\n")

    def test_blank_lines_skipped(self):
        ds = parse_soc("\n1: 2,1\n\n3: 1,2\n")
        assert len(ds.entries) == 2


class TestRoundTrip:
    def test_parse_serialize_parse_fixed_point(self):
        ds = parse_soc(SAMPLE, name="tiny")
        text = serialize_soc(ds)
        ds2 = parse_soc(text, name="tiny")
        assert ds2.entries == ds.entries
        assert ds2.metadata == ds.metadata
        assert serialize_soc(ds2) == text

    def test_load_uses_stem_as_name(self, tmp_path):
        path = tmp_path / "sample.soc"
        path.write_text(SAMPLE, encoding="utf-8")
        assert load_soc(path).name == "sample"


class TestSampleProfiles:
    def test_single_entry_repeats(self):
        ds = Dataset("one", 3, [(LinearOrder([2, 0, 1]), 7)])
        rng = random.Random(0)
        assert sample_profiles(ds, 5, rng) == [LinearOrder([2, 0, 1])] * 5

    def test_zero_rejected(self):
        ds = Dataset("one", 2, [(LinearOrder([0, 1]), 1)])
        with pytest.raises(ValueError):
            sample_profiles(ds, 0, random.Random(0))
        with pytest.raises(ValueError, match="no rankings"):
            sample_profiles(Dataset("none", 2, []), 1, random.Random(0))

    def test_members_come_from_dataset(self):
        ds = bundled("sample7")
        draws = sample_profiles(ds, 50, random.Random(1))
        members = {order for order, _ in ds.entries}
        assert all(d in members for d in draws)

    def test_frequencies_proportional_to_multiplicity(self):
        entries = [
            (LinearOrder([0, 1, 2]), 1),
            (LinearOrder([1, 0, 2]), 3),
            (LinearOrder([2, 1, 0]), 6),
        ]
        ds = Dataset("weighted", 3, entries)
        n = 100_000
        draws = Counter(
            tuple(o.ranking) for o in sample_profiles(ds, n, random.Random(5))
        )
        for order, mult in entries:
            p = mult / 10
            expected = n * p
            sigma = math.sqrt(n * p * (1 - p))
            assert abs(draws[order.ranking] - expected) <= 3 * sigma


class TestBundled:
    @pytest.mark.parametrize("name,m", [("sample10", 10), ("sample7", 7)])
    def test_loads(self, name, m):
        ds = bundled(name)
        assert ds.m == m
        assert ds.total_rankings() >= 100
        assert bundled_path(name).exists()
