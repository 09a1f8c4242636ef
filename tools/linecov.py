"""Which program lines the benchmark's workloads run.

    python3 tools/linecov.py --workloads post post_dp lira --seed 3

Runs `perfbench/run.py --workload W --seed S --trace T` twice per workload,
untraced (T = 0) and traced (T = 1), one run after another in this process,
under a `sys.settrace` function that records the lines reached in the files
under `src/promptxfer/`.  The traced run counts the lines that only the
benchmark's own hooks read, such as `Tensor._parents`.  Tracing starts
before the program is imported, so module-level lines count.  A run that
does not read `correct` stops the script.  It then prints, per module,
the executable lines that no run reached, as ranges with the source of each
range's first line.  A module's executable lines are the line numbers of
its compiled code objects, nested ones included (`co_lines`).  Both come
from the text each module had before the runs; a module whose text differs
after them stops the script with no listing, since the lines the runs
reached may no longer be the lines it lists.  It changes no file under
`perfbench/`; each run writes its git-ignored `perfbench/out/` as any
benchmark run does.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PROGRAM = ROOT / "src" / "promptxfer"
BENCH = ROOT / "perfbench"


def executable_lines(source: str) -> set[int]:
    """The line numbers of every code object compiled from `source`."""
    stack = [compile(source, "<source>", "exec")]
    lines: set[int] = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


class LineRecorder:
    """A `sys.settrace` function that records, per file of `paths`, the
    lines its frames run."""

    def __init__(self, paths):
        self.reached: dict[str, set[int]] = {os.path.realpath(p): set() for p in paths}
        self._by_name: dict[str, set[int] | None] = {}

    def __call__(self, frame, event, arg):
        name = frame.f_code.co_filename
        if name not in self._by_name:
            self._by_name[name] = self.reached.get(os.path.realpath(name))
        lines = self._by_name[name]
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local


def ranges(lines) -> list[tuple[int, int]]:
    """Sorted `lines` as inclusive (first, last) runs of consecutive numbers."""
    out: list[list[int]] = []
    for line in sorted(lines):
        if out and line == out[-1][1] + 1:
            out[-1][1] = line
        else:
            out.append([line, line])
    return [(a, b) for a, b in out]


def run_workloads(workloads: list[str], seed: int, seconds: int, recorder: LineRecorder) -> None:
    """Each workload's untraced and traced benchmark runs under `recorder`;
    SystemExit on a run that is not correct."""
    sys.path.insert(0, str(BENCH))
    sys.settrace(recorder)
    try:
        bench = importlib.import_module("run")
        for workload in workloads:
            for trace in ("0", "1"):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    bench.main(
                        ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", trace]
                    )
                result = json.loads(out.getvalue().strip().splitlines()[-1])
                name = f"{workload} seed {seed} trace {trace}"
                print(f"{name}: correct {result['correct']}, {result['failed']} failed of {result['attempted']}",
                      file=sys.stderr)
                if not result["correct"]:
                    raise SystemExit(f"{name}: run is not correct")
    finally:
        sys.settrace(None)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    texts = {path: path.read_text(encoding="utf-8") for path in sorted(PROGRAM.glob("*.py"))}
    recorder = LineRecorder(texts)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    run_workloads(args.workloads, args.seed, seconds, recorder)

    changed = [path for path, text in texts.items() if not path.exists() or path.read_text(encoding="utf-8") != text]
    if changed:
        names = ", ".join(str(path.relative_to(ROOT)) for path in changed)
        raise SystemExit(f"changed during the runs, so no listing: {names}")
    for path, text in texts.items():
        source = text.splitlines()
        lines = executable_lines(text)
        missed = lines - recorder.reached[os.path.realpath(path)]
        print(f"{path.relative_to(ROOT)}: {len(missed)} of {len(lines)} executable lines not reached")
        for first, last in ranges(missed):
            span = str(first) if first == last else f"{first}-{last}"
            print(f"  {span:>9}  {source[first - 1].strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
