"""`tools/ab_stage.py`: its summary, its differences, its imports, and one
run of the tool on a small pipeline run with the same checkout on both
sides."""

import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from test_pipeline import tiny_config

ROOT = Path(__file__).resolve().parents[1]


def _load(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ab_stage = _load("ab_stage")
ab_pairs = _load("ab_pairs")


def test_summary_is_the_ab_pairs_summary_of_the_wall_times():
    seconds = {"parent": [2.0 + 0.01 * i for i in range(10)], "change": [1.5 + 0.01 * i for i in range(10)]}
    s = ab_stage.summary(seconds, [0.0, 3e-7, 1e-7], [0.0, 0.0, 2e-12])
    assert s["rounds"] == 10
    assert s["seconds"] == ab_pairs.summarize(seconds["parent"], seconds["change"], "lower")
    assert s["seconds"]["gain_holds"] and s["seconds"]["wins"] == 10
    assert (s["prompt_max_abs_diff"], s["first_total_max_abs_diff"]) == (3e-7, 2e-12)


def test_largest_difference_of_arrays_numbers_and_mismatched_shapes():
    a = np.arange(6, dtype=np.float32).reshape(2, 3)
    assert ab_stage.largest_difference(a, a.copy()) == 0.0
    b = a.copy()
    b[1, 2] -= 0.25
    b[0, 0] += 0.125
    assert ab_stage.largest_difference(a, b) == 0.25
    assert ab_stage.largest_difference(1.5, 1.0) == 0.5
    assert ab_stage.largest_difference(a, a[0]) == math.inf


def test_a_checkout_imports_under_its_own_name():
    one = ab_stage.import_checkout(ROOT, "promptxfer_ab_one")
    two = ab_stage.import_checkout(ROOT, "promptxfer_ab_two")
    try:
        for m in ("transfer", "pipeline", "artifacts", "corpus"):
            assert one[m] is not two[m]
            assert one[m].__name__ == f"promptxfer_ab_one.{m}" and two[m].__name__ == f"promptxfer_ab_two.{m}"
        # each package's modules see their own siblings, not the other's
        assert one["transfer"].Tensor is sys.modules["promptxfer_ab_one.autograd"].Tensor
        assert one["transfer"].Tensor is not two["transfer"].Tensor
    finally:
        for name in [n for n in sys.modules if n.startswith(("promptxfer_ab_one", "promptxfer_ab_two"))]:
            del sys.modules[name]


def test_the_tool_finds_no_difference_between_a_checkout_and_itself(tmp_path, capsys):
    from promptxfer.cli import EXIT_OK, main

    config = tiny_config(tmp_path / "run", baselines=["post"], attack={"enabled": False})
    (tmp_path / "workload_config.json").write_text(json.dumps(config))
    assert main(["pipeline", "--config", str(tmp_path / "workload_config.json")]) == EXIT_OK
    capsys.readouterr()
    try:
        assert ab_stage.main([str(ROOT), str(ROOT), str(tmp_path), "--rounds", "2"]) == 0
    finally:
        for name in [n for n in sys.modules if n.startswith(("promptxfer_parent", "promptxfer_change"))]:
            del sys.modules[name]
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["rounds"] == 2 and result["seconds"]["pairs"] == 2
    assert result["prompt_max_abs_diff"] == 0.0 and result["first_total_max_abs_diff"] == 0.0
    assert lines[0].startswith("round 0 (parent first)") and lines[1].startswith("round 1 (change first)")


def test_fewer_than_two_rounds_is_rejected(tmp_path):
    with pytest.raises(SystemExit):
        ab_stage.main([str(ROOT), str(ROOT), str(tmp_path), "--rounds", "1"])
