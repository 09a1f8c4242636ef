"""The summary of `tools/ab_pairs.py` on synthetic pairs of runs."""

import argparse
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "ab_pairs.py"
_SPEC = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_pairs)


def test_summary_quartiles_and_a_clear_gain():
    parent = [80.0 + 0.1 * i for i in range(10)]
    change = [p - 9.0 for p in parent]
    s = ab_pairs.summarize(parent, change, "lower")
    assert s["pairs"] == 10 and s["wins"] == 10
    assert s["parent"]["median"] == pytest.approx(80.45)
    assert (s["parent"]["q1"], s["parent"]["q3"]) == pytest.approx((80.175, 80.725))
    assert s["change"]["median"] == pytest.approx(71.45)
    assert s["gain_holds"]


def test_summary_needs_nine_tenths_of_the_pairs():
    parent = [10.0] * 10
    change = [9.0] * 8 + [11.0] * 2  # 8 of 10
    assert not ab_pairs.summarize(parent, change, "lower")["gain_holds"]
    change[-1] = 9.0  # 9 of 10
    assert ab_pairs.summarize(parent, change, "lower")["gain_holds"]


def test_summary_needs_a_median_gap_wider_than_the_parents_iqr():
    parent = [1.0, 3.0] * 5  # quartiles 1 and 3
    change = [p - 1.5 for p in parent]  # wins every pair, medians 2 apart
    s = ab_pairs.summarize(parent, change, "lower")
    assert s["wins"] == 10 and not s["gain_holds"]
    assert ab_pairs.summarize(parent, [p - 2.5 for p in parent], "lower")["gain_holds"]


def test_summary_ties_count_for_neither_and_higher_is_better():
    parent = [5.0, 5.0, 5.0, 5.0]
    s = ab_pairs.summarize(parent, [5.0, 6.0, 6.0, 4.0], "higher")
    assert s["wins"] == 2
    assert ab_pairs.summarize(parent, [5.0, 6.0, 6.0, 4.0], "lower")["wins"] == 1


def test_summary_and_seed_range_reject_bad_input():
    with pytest.raises(ValueError):
        ab_pairs.summarize([1.0, 2.0], [1.0], "lower")
    with pytest.raises(ValueError):
        ab_pairs.summarize([1.0, 2.0], [1.0, 2.0], "faster")
    assert ab_pairs.parse_seeds("101-105") == [101, 102, 103, 104, 105]
    for text in ("7", "5-3", "a-b"):
        with pytest.raises(argparse.ArgumentTypeError):
            ab_pairs.parse_seeds(text)


def test_a_pair_stops_only_when_the_change_fails_a_larger_share():
    def run(attempted, failed):
        return {"attempted": attempted, "failed": failed}

    # fewer operations attempted, none failed on either side: no stop
    assert not ab_pairs.fails_larger_share(run(13, 0), run(10, 0))
    # the same failures over fewer operations is a larger share
    assert ab_pairs.fails_larger_share(run(12, 2), run(10, 2))
    # fewer failures over fewer operations can be an equal or smaller share
    assert not ab_pairs.fails_larger_share(run(12, 2), run(6, 1))
    assert not ab_pairs.fails_larger_share(run(14, 2), run(13, 1))
    assert ab_pairs.fails_larger_share(run(14, 0), run(14, 1))
