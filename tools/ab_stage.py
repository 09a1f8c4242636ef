"""Alternating A/B rounds of one prompt transfer between two checkouts.

    python3 tools/ab_stage.py PARENT_DIR CHANGE_DIR RUN_DIR --rounds 10

RUN_DIR is the directory one benchmark run wrote,
`perfbench/out/<workload>-seed<S>` (`python3 perfbench/run.py`): its
`workload_config.json` and its seed directory `run/seed<S>/`, which holds
the teacher, the student, the source prompts and the task manifest.  The
transfer is the one of `--prompt` (`prompt_student.pspa` by default, or
`prompt_student_dp.pspa`), with the config, public rows, seed and alpha the
pipeline gives that transfer row.

`promptxfer` is imported from each checkout's `src/` under a distinct
module name (`promptxfer_parent`, `promptxfer_change`), and each side loads
the run's models, prompt, config and public rows with its own readers.  The
script then calls each side's `transfer_prompt` once per round, in one
process with BLAS pinned to one thread; the side that runs first alternates
from round to round.  It prints each side's median wall time and quartiles
and the change's wins (`ab_pairs.summarize`; the gain rule needs at least
two rounds), and, over all rounds, the largest absolute difference between
the two sides' transferred prompts and between their first logged
objectives.  The last line is the same as one JSON object.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads, as the benchmark runs.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import importlib
import importlib.util
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from ab_pairs import SIDES, summarize  # noqa: E402

# source prompt file -> the STAGE_PLAN row that transfers it
TRANSFER_ROWS = {"prompt_student.pspa": "transfer", "prompt_student_dp.pspa": "transfer_dp"}


def import_checkout(checkout: Path, name: str) -> dict:
    """The `transfer`, `pipeline`, `artifacts` and `corpus` modules of
    `checkout`'s `src/promptxfer`, imported as the package `name`."""
    package = checkout / "src" / "promptxfer"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    if spec is None:
        raise SystemExit(f"promptxfer sources not found under {checkout / 'src'}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return {m: importlib.import_module(f"{name}.{m}") for m in ("transfer", "pipeline", "artifacts", "corpus")}


def transfer_call(px: dict, run_dir: Path, prompt: str):
    """A no-argument call of `px`'s `transfer_prompt` on the run in
    `run_dir`, with the arguments the pipeline's transfer row of `prompt`
    passes, loaded by `px`'s own readers."""
    seed_dir = next((run_dir / "run").glob("seed*"))
    seed = int(seed_dir.name.removeprefix("seed"))
    config = px["pipeline"].load_config(run_dir / "workload_config.json")
    manifest = json.loads((seed_dir / "task_manifest.json").read_text())
    corpus = px["corpus"]
    _, public, _ = corpus.gen_synth_pair(corpus.SynthTaskSpec.from_dict(manifest["spec"]))
    if config.public_subset is not None and config.public_subset < len(public):
        public = public.subset(range(config.public_subset))
    art = px["artifacts"]
    teacher, student = (art.load_model(seed_dir / f) for f in ("teacher.pstl", "student.pstl"))
    p_s = art.load_prompt(seed_dir / prompt)
    alpha = None if isinstance(config.transfer_alpha, str) else float(config.transfer_alpha)
    row_seed = px["pipeline"].seed_stream(seed, TRANSFER_ROWS[prompt])
    return lambda: px["transfer"].transfer_prompt(teacher, student, p_s, public, config.transfer, alpha, row_seed)


def largest_difference(a, b) -> float:
    """max |a - b| over two equally shaped arrays (or numbers); inf when
    the shapes differ."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        return math.inf
    return float(np.max(np.abs(a - b), initial=0.0))


def summary(seconds: dict, prompt_diffs: list[float], first_diffs: list[float]) -> dict:
    """The record of finished rounds: `seconds` maps each side to its wall
    times, round i of one side paired with round i of the other; the diffs
    are each round's `largest_difference` between the sides."""
    return {
        "rounds": len(seconds["parent"]),
        "seconds": summarize(seconds["parent"], seconds["change"], "lower"),
        "prompt_max_abs_diff": max(prompt_diffs),
        "first_total_max_abs_diff": max(first_diffs),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("run_dir", type=Path, help="one benchmark run's perfbench/out/<workload>-seed<S>")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--prompt", choices=sorted(TRANSFER_ROWS), default="prompt_student.pspa")
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2 for quartiles")

    calls = {
        side: transfer_call(import_checkout(getattr(args, side), f"promptxfer_{side}"), args.run_dir, args.prompt)
        for side in SIDES
    }
    seconds = {side: [] for side in SIDES}
    prompt_diffs, first_diffs = [], []
    for i in range(args.rounds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        out = {}
        for side in order:
            gc.collect()
            start = time.perf_counter()
            p_t, history, _ = calls[side]()
            seconds[side].append(time.perf_counter() - start)
            out[side] = (p_t.matrix, history[0]["total"] if history else math.nan)
        prompt_diffs.append(largest_difference(out["parent"][0], out["change"][0]))
        first_diffs.append(largest_difference(out["parent"][1], out["change"][1]))
        times = "  ".join(f"{side} {seconds[side][-1]:.3f} s" for side in SIDES)
        print(f"round {i} ({order[0]} first): {times}", flush=True)

    result = summary(seconds, prompt_diffs, first_diffs)
    s = result["seconds"]
    sides = "  ".join(f"{side} {s[side]['median']:.4g} [{s[side]['q1']:.4g}, {s[side]['q3']:.4g}]" for side in SIDES)
    print(f"transfer_prompt ({args.prompt}, s): {sides}  wins {s['wins']}/{s['pairs']}  gain rule holds: {s['gain_holds']}")
    print(
        f"largest difference: transferred prompt {result['prompt_max_abs_diff']:.3g}, "
        f"first logged objective {result['first_total_max_abs_diff']:.3g}"
    )
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
