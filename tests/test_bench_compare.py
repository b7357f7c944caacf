"""Tests of ``python -m repro bench compare``'s verdict and digest logic.

Only canned run records: no perfbench run belongs in tier-1.
"""

from __future__ import annotations

import pytest

from repro.bench.compare import digests_agree, head_wins, quartiles, report, verdict

BASE = [10.0, 10.5, 11.0, 9.5, 10.2, 9.8, 10.1, 10.4, 9.9, 10.3]


class TestVerdict:
    def test_a_clear_gain_in_every_pair_is_a_win(self):
        head = [value * 0.6 for value in BASE]
        assert head_wins(BASE, head, "lower") == 10
        assert verdict(BASE, head, "lower", 0.24) == "win"

    def test_eight_wins_of_ten_are_not_enough(self):
        head = [value * 0.6 for value in BASE[:8]] + [value * 1.05 for value in BASE[8:]]
        assert head_wins(BASE, head, "lower") == 8
        assert verdict(BASE, head, "lower", 0.24) == "no change"

    def test_a_gap_inside_the_base_spread_is_not_a_win(self):
        base = [10.0, 14.0, 10.0, 14.0, 10.0, 14.0, 10.0, 14.0, 10.0, 14.0]
        head = [value - 0.5 for value in base]
        assert head_wins(base, head, "lower") == 10
        assert verdict(base, head, "lower", 0.5) == "no change"

    def test_ties_count_for_neither_side(self):
        assert head_wins([1.0, 2.0, 3.0], [1.0, 1.0, 4.0], "lower") == 1
        assert head_wins([1.0, 2.0, 3.0], [1.0, 1.0, 4.0], "higher") == 1

    def test_worse_than_the_bound_is_a_regression(self):
        head = [value * 1.3 for value in BASE]
        assert verdict(BASE, head, "lower", 0.24) == "regression"
        assert verdict(BASE, [value * 0.7 for value in BASE], "higher", 0.24) == "regression"
        assert verdict(BASE, [value * 1.1 for value in BASE], "lower", 0.24) == "no change"

    def test_a_base_spread_wider_than_the_bound_is_unresolved(self):
        base = [5.0, 15.0, 5.0, 15.0, 5.0, 15.0, 5.0, 15.0, 5.0, 15.0]
        assert verdict(base, [value * 1.05 for value in base], "lower", 0.24) == "unresolved"
        # ... unless every head run beats every base run (still no win: the
        # gap is inside the base's IQR).
        assert verdict(base, [4.0] * 10, "lower", 0.24) == "no change"
        assert verdict(base, [-1.0] * 10, "lower", 0.24) == "win"

    def test_quartiles(self):
        assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (3.0, 2.0, 4.0)


class TestDigests:
    def test_keys_are_compared_without_the_source_hash(self):
        base = {"aaaa/serve-mixed/1/102/0/0": "x", "aaaa/serve-mixed/2/102/0/0": "y"}
        head = {"bbbb/serve-mixed/1/102/0/0": "x", "bbbb/serve-mixed/2/102/0/0": "y"}
        assert digests_agree(base, head) is True
        head["bbbb/serve-mixed/2/102/0/0"] = "z"
        assert digests_agree(base, head) is False

    def test_no_common_key_gives_none(self):
        assert digests_agree({"a/w/1": "x"}, {"b/w/2": "x"}) is None
        assert digests_agree({}, {}) is None


def canned(value, correct=True, failed=0, attempted=100):
    return {"correct": correct, "failed": failed, "attempted": attempted,
            "metrics": {"read_p99_ms": {"value": value, "unit": "ms"},
                        "reads_per_s": {"value": 1000.0 / value, "unit": "1/s"}}}


def test_report_rows_and_sides():
    spec = {"end_to_end": [
        {"name": "read_p99_ms", "unit": "ms", "better": "lower", "bound": 0.24},
        {"name": "reads_per_s", "unit": "1/s", "better": "higher", "bound": 0.24},
    ]}
    records = {"base": [canned(value) for value in BASE],
               "head": [canned(value * 0.5, failed=int(k == 3)) for k, value in enumerate(BASE)]}
    summary = report(records, {"base": {"h1/w/1": "d"}, "head": {"h2/w/1": "d"}}, spec)
    rows = {row["metric"]: row for row in summary["rows"]}
    assert rows["read_p99_ms"]["verdict"] == "win"
    assert rows["reads_per_s"]["verdict"] == "win"
    assert rows["read_p99_ms"]["head_wins"] == 10 and rows["read_p99_ms"]["pairs"] == 10
    assert rows["read_p99_ms"]["base"]["median"] == pytest.approx(10.15)
    assert summary["sides"]["base"] == {"correct": True, "failed": 0, "attempted": 1000}
    assert summary["sides"]["head"]["failed"] == 1
    assert summary["digests_agree"] is True
