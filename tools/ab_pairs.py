"""Alternating A/B pairs of the benchmark between two checkouts.

    python3 tools/ab_pairs.py PARENT_DIR CHANGE_DIR --workload lira --seeds 200-209

For each seed in the inclusive range, runs
`python3 perfbench/run.py --workload W --seed S --seconds N --trace 0` once
in each checkout, with N the `run_seconds` of the change's
`BENCHMARK.json`, one process at a time; the side that runs first
alternates from pair to pair.  A run that does not read `correct`, or a
pair whose change fails a larger share of its operations than its parent
(`fails_larger_share`), stops the script; the two sides may attempt
different numbers of operations.  It then prints each side's attempted and
failed operations over all runs and, for each end-to-end metric in the
change's `BENCHMARK.json`, each side's median and quartiles, the change's
wins over the pairs (ties count for neither) and whether the gain rule
holds: the change wins at least nine tenths of the pairs and the medians
differ by more than the parent's interquartile range.  Beside it goes the
no-regression verdict against the metric's `bound` (`verdict`): worse,
unresolved or ok.

After each pair it compares what the two runs wrote under
`perfbench/out/<workload>-seed<S>/run/seed<S>/` in their checkouts
(`differing_outputs`) and prints the files whose names or bytes differ; a
checkout that wrote no such directory counts as one that wrote no files.

It records the same in `BENCH_<workload>.json` in the change checkout
(`record`): the seeds, each side's operation counts, git SHA and source
digest, the host (cores, Python, numpy, scipy and BLAS, as
`perfbench/run.py` reports them on its `environment` line), per
end-to-end metric the summary above, and per seed the side that ran first,
each side's end-to-end values (`runs`) and the differing files (an empty
list where both sides wrote the same bytes).  Each benchmark run
writes its own git-ignored `perfbench/out/` in its checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    """Pairwise comparison of one metric over at least two pairs: run i of
    `parent` is paired with run i of `change`.  `better` is "lower" or
    "higher"."""
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need two equally long lists of at least two runs")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    stats = {}
    for side, runs in zip(SIDES, (parent, change)):
        q1, median, q3 = statistics.quantiles(runs, n=4)
        stats[side] = {"median": median, "q1": q1, "q3": q3}
    gap = sign * (stats["parent"]["median"] - stats["change"]["median"])
    parent_iqr = stats["parent"]["q3"] - stats["parent"]["q1"]
    return {
        **stats,
        "pairs": len(parent),
        "wins": wins,
        "gain_holds": 10 * wins >= 9 * len(parent) and gap > parent_iqr,
    }


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """The benchmark gate's no-regression verdict on one metric, with
    `bound` the metric's relative bound in `BENCHMARK.json`: "worse" when
    the change's median is worse than the parent's by more than `bound`
    times the parent's median; "unresolved" when the parent's interquartile
    range is wider than that, unless every change run beats every parent
    run; "ok" otherwise."""
    sign = 1.0 if better == "lower" else -1.0
    q1, median, q3 = statistics.quantiles(parent, n=4)
    limit = bound * abs(median)
    if sign * (statistics.median(change) - median) > limit:
        return "worse"
    if q3 - q1 > limit and not all(sign * (p - c) > 0 for p in parent for c in change):
        return "unresolved"
    return "ok"


def fails_larger_share(parent: dict, change: dict) -> bool:
    """Whether the change's run fails a larger share of its attempted
    operations than the parent's; each is a run's result line."""
    return change["failed"] * parent["attempted"] > parent["failed"] * change["attempted"]


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    try:
        seeds = list(range(int(first), int(last or first) + 1))
    except ValueError:
        raise argparse.ArgumentTypeError(f"seeds must read A-B, got {text!r}") from None
    if len(seeds) < 2:
        raise argparse.ArgumentTypeError("a range of at least two seeds is needed for quartiles")
    return seeds


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{checkout} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{checkout} seed {seed}: run is not correct\n{proc.stderr[-2000:]}")
    return result


def seed_outputs(checkout: Path, workload: str, seed: int) -> Path:
    """Where `checkout`'s benchmark run of `workload` at `seed` writes the
    seed's artifacts."""
    return checkout / "perfbench" / "out" / f"{workload}-seed{seed}" / "run" / f"seed{seed}"


def differing_outputs(parent: Path, change: Path) -> list[str]:
    """The sorted paths, relative to their directory, of the files under
    `parent` or `change` that the other lacks or holds with other bytes; a
    missing directory holds no files."""
    files = [{p.relative_to(root).as_posix(): p for p in root.rglob("*") if p.is_file()} for root in (parent, change)]
    return sorted(
        name for name in files[0].keys() | files[1].keys()
        if name not in files[0] or name not in files[1] or files[0][name].read_bytes() != files[1][name].read_bytes()
    )


def environment(checkout: Path) -> dict:
    """The `environment()` of `checkout`'s `perfbench/run.py`, the fields
    a traced run prints on its `environment` line."""
    code = "import json, run; print(json.dumps(run.environment()))"
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=checkout / "perfbench", capture_output=True, text=True, check=False
    )
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: environment: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def record(
    workload: str, seeds: list[int], runs: dict, envs: dict, end_to_end: list[dict], differing: dict, first: dict
) -> dict:
    """The `BENCH_<workload>.json` of a finished comparison: `runs` and
    `envs` map each side to its result lines and its `environment`,
    `end_to_end` is the change's `BENCHMARK.json` list of metrics,
    `differing` maps each seed to its `differing_outputs` and `first` maps
    it to the side that ran first."""
    values = {
        side: [{m["name"]: r["metrics"][m["name"]]["value"] for m in end_to_end} for r in runs[side]]
        for side in SIDES
    }
    metrics = {}
    for metric in end_to_end:
        parent, change = ([v[metric["name"]] for v in values[side]] for side in SIDES)
        metrics[metric["name"]] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "bound": metric["bound"],
            "verdict": verdict(parent, change, metric["better"], metric["bound"]),
            **summarize(parent, change, metric["better"]),
        }
    return {
        "workload": workload,
        "seeds": seeds,
        "operations": {
            side: {key: sum(r[key] for r in runs[side]) for key in ("attempted", "failed")} for side in SIDES
        },
        "git_sha": {side: envs[side]["git_sha"] for side in SIDES},
        "source_sha256": {side: envs[side]["source_sha256"] for side in SIDES},
        "host": {k: v for k, v in envs["change"].items() if k not in ("git_sha", "source_sha256")},
        "metrics": metrics,
        "runs": {
            str(seed): {"first": first[seed], **{side: values[side][i] for side in SIDES}}
            for i, seed in enumerate(seeds)
        },
        "differing_outputs": {str(seed): differing[seed] for seed in seeds},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="inclusive range A-B")
    args = parser.parse_args(argv)

    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
    envs = {side: environment(getattr(args, side)) for side in SIDES}
    runs = {side: [] for side in SIDES}
    differing, first = {}, {}
    for i, seed in enumerate(args.seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        first[seed] = order[0]
        pair = {side: run_once(getattr(args, side), args.workload, seed, benchmark["run_seconds"]) for side in order}
        counts = ", ".join(f"{side} {pair[side]['failed']}/{pair[side]['attempted']}" for side in SIDES)
        if fails_larger_share(pair["parent"], pair["change"]):
            raise SystemExit(f"seed {seed}: the change fails a larger share of operations ({counts} failed)")
        values = {side: {m: v["value"] for m, v in pair[side]["metrics"].items()} for side in SIDES}
        print(f"seed {seed} ({order[0]} first, {counts} failed): " + json.dumps(values, sort_keys=True), flush=True)
        differing[seed] = differing_outputs(
            *(seed_outputs(getattr(args, side), args.workload, seed) for side in SIDES)
        )
        print(f"seed {seed}: outputs that differ: {differing[seed] or 'none'}", flush=True)
        for side in SIDES:
            runs[side].append(pair[side])

    result = record(args.workload, args.seeds, runs, envs, benchmark["end_to_end"], differing, first)
    ops = result["operations"]
    totals = "; ".join(f"{side} attempted {ops[side]['attempted']}, failed {ops[side]['failed']}" for side in SIDES)
    print(f"{args.workload}: {len(args.seeds)} pairs; over all runs, {totals}")
    for name, s in result["metrics"].items():
        sides = "  ".join(
            f"{side} {s[side]['median']:.4g} [{s[side]['q1']:.4g}, {s[side]['q3']:.4g}]" for side in SIDES
        )
        print(
            f"  {name} ({s['unit']}): {sides}  wins {s['wins']}/{s['pairs']}  gain rule holds: {s['gain_holds']}"
            f"  verdict within {s['bound']:.0%}: {s['verdict']}"
        )
    path = args.change / f"BENCH_{args.workload}.json"
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
