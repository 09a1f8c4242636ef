"""The line enumeration and recording of `tools/linecov.py` on a small
module."""

import importlib.util
import json
import sys
import types
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "linecov.py"
_SPEC = importlib.util.spec_from_file_location("linecov", _PATH)
linecov = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(linecov)

SMALL = '''"""A small module."""
import os


def used(x):
    """A docstring is no code."""
    if x:
        return 1
    return 2


@staticmethod
def decorated():
    return os.sep


def unused():
    return 3
'''


def test_executable_lines_are_those_of_the_nested_code_objects():
    assert linecov.executable_lines(SMALL) == {1, 2, 5, 7, 8, 9, 12, 13, 14, 17, 18}


def test_the_recorder_reaches_what_an_import_and_a_call_run(tmp_path):
    path = tmp_path / "small.py"
    path.write_text(SMALL)
    recorder = linecov.LineRecorder([path])
    spec = importlib.util.spec_from_file_location("small", path)
    module = importlib.util.module_from_spec(spec)
    sys.settrace(recorder)
    try:
        spec.loader.exec_module(module)
        module.used(1)
    finally:
        sys.settrace(None)
    reached = recorder.reached[str(path.resolve())]
    assert linecov.executable_lines(SMALL) - reached == {9, 14, 18}


def test_ranges_join_consecutive_lines():
    assert linecov.ranges({8, 1, 2, 3, 5, 7}) == [(1, 3), (5, 5), (7, 8)]
    assert linecov.ranges([]) == []


def test_each_workload_runs_untraced_and_traced(monkeypatch):
    """The benchmark's hooks read program names too, so every workload runs
    once with `--trace 0` and once with `--trace 1`."""
    calls = []

    def main(argv):
        calls.append((argv[argv.index("--workload") + 1], argv[argv.index("--trace") + 1]))
        print('{"correct": true, "failed": 0, "attempted": 1}')
        return 0

    monkeypatch.setitem(sys.modules, "run", types.SimpleNamespace(main=main))
    monkeypatch.setattr(sys, "path", list(sys.path))
    linecov.run_workloads(["post", "lira"], 3, 35, linecov.LineRecorder([]))
    assert calls == [("post", "0"), ("post", "1"), ("lira", "0"), ("lira", "1")]


@pytest.mark.parametrize("edit", [False, True], ids=["unchanged", "edited"])
def test_a_source_edited_during_the_runs_gets_no_listing(tmp_path, monkeypatch, capsys, edit):
    """The listing maps the lines reached onto the text each module had
    before the runs; a module whose text differs after them is named, and
    nothing is listed."""
    program = tmp_path / "src" / "promptxfer"
    program.mkdir(parents=True)
    (program / "small.py").write_text(SMALL)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 35}))

    def run_workloads(workloads, seed, seconds, recorder):
        if edit:  # a docstring grows by a line: every later line moves
            (program / "small.py").write_text(SMALL.replace('"""A small module."""', '"""A small\nmodule."""'))

    monkeypatch.setattr(linecov, "ROOT", tmp_path)
    monkeypatch.setattr(linecov, "PROGRAM", program)
    monkeypatch.setattr(linecov, "run_workloads", run_workloads)
    if edit:
        with pytest.raises(SystemExit, match="src/promptxfer/small.py") as stopped:
            linecov.main(["--workloads", "post", "--seed", "3"])
        assert stopped.value.code != 0
        assert capsys.readouterr().out == ""
    else:
        assert linecov.main(["--workloads", "post", "--seed", "3"]) == 0
        listing = capsys.readouterr().out
        assert listing.startswith("src/promptxfer/small.py: 11 of 11 executable lines not reached")
        assert "      1-2  \"\"\"A small module.\"\"\"" in listing
