"""The line enumeration and recording of `tools/linecov.py` on a small
module."""

import importlib.util
import sys
import types
from pathlib import Path

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


def test_executable_lines_are_those_of_the_nested_code_objects(tmp_path):
    path = tmp_path / "small.py"
    path.write_text(SMALL)
    assert linecov.executable_lines(path) == {1, 2, 5, 7, 8, 9, 12, 13, 14, 17, 18}


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
    assert linecov.executable_lines(path) - reached == {9, 14, 18}


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
