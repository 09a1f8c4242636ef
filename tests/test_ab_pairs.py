"""The summary and the record of `tools/ab_pairs.py` on synthetic pairs of
runs."""

import argparse
import importlib.util
import json
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


def test_verdict_worse_beyond_the_bound_of_the_parents_median():
    parent = [10.0, 10.1, 10.2, 10.3]
    assert ab_pairs.verdict(parent, [p + 3.0 for p in parent], "lower", 0.25) == "worse"
    assert ab_pairs.verdict(parent, [p + 2.0 for p in parent], "lower", 0.25) == "ok"
    # higher is better: a fall of more than the bound is worse
    assert ab_pairs.verdict(parent, [p - 3.0 for p in parent], "higher", 0.25) == "worse"
    assert ab_pairs.verdict(parent, [p + 3.0 for p in parent], "higher", 0.25) == "ok"


def test_verdict_unresolved_when_the_parent_spreads_wider_than_the_bound():
    parent = [6.0, 10.0, 10.0, 14.0]  # quartiles 7 and 13: 6 apart, 2.5 allowed
    assert ab_pairs.verdict(parent, [10.0, 10.0, 10.0, 10.0], "lower", 0.25) == "unresolved"
    # unless every change run beats every parent run
    assert ab_pairs.verdict(parent, [5.0, 5.5, 5.0, 5.5], "lower", 0.25) == "ok"
    assert ab_pairs.verdict(parent, [5.0, 5.5, 5.0, 6.0], "lower", 0.25) == "unresolved"
    # a worse median beyond the bound is worse whatever the spread
    assert ab_pairs.verdict(parent, [13.0, 13.0, 13.0, 13.0], "lower", 0.25) == "worse"


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


def test_a_comparison_records_its_summary_in_the_change_checkout(tmp_path, monkeypatch, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    end_to_end = [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.2},
    ]
    (change / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 35, "end_to_end": end_to_end}))
    host = {"nproc": 2, "python": "3.11.7", "numpy": "2.0", "scipy": "1.14", "blas": None, "blas_threads": {}}

    def environment(checkout):
        return {**host, "git_sha": checkout.name + "-sha", "source_sha256": checkout.name + "-src"}

    def run_once(checkout, workload, seed, seconds):
        assert (workload, seconds) == ("lira", 35)
        value = float(seed) + (0.5 if checkout == parent else 0.0)
        metrics = {"setup_s": {"value": value}, "peak_rss_mb": {"value": 70.0}}
        return {"correct": True, "attempted": 9, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(ab_pairs, "environment", environment)
    monkeypatch.setattr(ab_pairs, "run_once", run_once)
    assert ab_pairs.main([str(parent), str(change), "--workload", "lira", "--seeds", "1-4"]) == 0
    written = json.loads((change / "BENCH_lira.json").read_text())
    assert not (parent / "BENCH_lira.json").exists()
    assert str(change / "BENCH_lira.json") in capsys.readouterr().out

    assert written["workload"] == "lira" and written["seeds"] == [1, 2, 3, 4]
    assert written["git_sha"] == {"parent": "parent-sha", "change": "change-sha"}
    assert written["source_sha256"] == {"parent": "parent-src", "change": "change-src"}
    assert written["host"] == host
    assert written["operations"] == {side: {"attempted": 36, "failed": 0} for side in ab_pairs.SIDES}
    assert set(written["metrics"]) == {"setup_s", "peak_rss_mb"}
    for name, summary in written["metrics"].items():
        assert set(summary) == {
            "unit", "better", "bound", "verdict", "parent", "change", "pairs", "wins", "gain_holds"
        }, name
        for side in ab_pairs.SIDES:
            assert set(summary[side]) == {"median", "q1", "q3"}
        assert summary["pairs"] == 4
    setup = written["metrics"]["setup_s"]
    assert (setup["unit"], setup["better"], setup["wins"]) == ("s", "lower", 4)
    assert setup["change"]["median"] == pytest.approx(2.5) and setup["parent"]["median"] == pytest.approx(3.0)
    assert written["metrics"]["peak_rss_mb"]["wins"] == 0
    # setup_s: medians 3.0 -> 2.5, but the parent's quartiles 1.75 and 4.25
    # lie further apart than 25% of 3.0, and change run 4 loses to parent run 1
    assert (setup["bound"], setup["verdict"]) == (0.25, "unresolved")
    assert written["metrics"]["peak_rss_mb"]["verdict"] == "ok"
    # each pair's end-to-end values per side, and the side that ran first
    assert written["runs"] == {
        str(seed): {
            "first": "parent" if seed % 2 else "change",
            "parent": {"setup_s": seed + 0.5, "peak_rss_mb": 70.0},
            "change": {"setup_s": float(seed), "peak_rss_mb": 70.0},
        }
        for seed in (1, 2, 3, 4)
    }


def test_differing_outputs_names_files_missing_on_one_side_or_with_other_bytes(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for root, files in (
        (parent, {"same.pspa": b"a", "bytes.csv": b"1", "only_parent.json": b"x", "sub/deep.pstl": b"d"}),
        (change, {"same.pspa": b"a", "bytes.csv": b"2", "only_change.json": b"x", "sub/deep.pstl": b"d"}),
    ):
        for name, data in files.items():
            (root / name).parent.mkdir(parents=True, exist_ok=True)
            (root / name).write_bytes(data)
    assert ab_pairs.differing_outputs(parent, change) == ["bytes.csv", "only_change.json", "only_parent.json"]
    assert ab_pairs.differing_outputs(parent, parent) == []
    # a side that wrote nothing differs in every file the other wrote
    assert ab_pairs.differing_outputs(tmp_path / "none", parent) == [
        "bytes.csv", "only_parent.json", "same.pspa", "sub/deep.pstl"
    ]


def test_a_comparison_records_the_outputs_that_differ_per_seed(tmp_path, monkeypatch, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    change.mkdir(parents=True)
    end_to_end = [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]
    (change / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 35, "end_to_end": end_to_end}))

    def run_once(checkout, workload, seed, seconds):
        out = checkout / "perfbench" / "out" / f"{workload}-seed{seed}" / "run" / f"seed{seed}"
        out.mkdir(parents=True)
        (out / "teacher.pstl").write_bytes(b"same")
        # seed 2's change writes its prompt with other bytes
        (out / "prompt_student.pspa").write_bytes(b"changed" if (checkout, seed) == (change, 2) else b"p")
        return {"correct": True, "attempted": 9, "failed": 0, "metrics": {"setup_s": {"value": 1.0 + seed}}}

    monkeypatch.setattr(ab_pairs, "environment", lambda checkout: {"git_sha": "", "source_sha256": ""})
    monkeypatch.setattr(ab_pairs, "run_once", run_once)
    assert ab_pairs.main([str(parent), str(change), "--workload", "post", "--seeds", "1-3"]) == 0
    written = json.loads((change / "BENCH_post.json").read_text())
    assert written["differing_outputs"] == {"1": [], "2": ["prompt_student.pspa"], "3": []}
    out = capsys.readouterr().out
    assert "seed 1: outputs that differ: none" in out
    assert "seed 2: outputs that differ: ['prompt_student.pspa']" in out
