"""Benchmark of the POST pipeline: one workload, one seed, one process.

    python3 perfbench/run.py --workload post --seed 0 --seconds 35 --trace 0

Runs `pipeline.run_pipeline` once on a config this script writes, checks the
outputs against independent computations, and prints one JSON line:
`{"correct", "attempted", "failed", "metrics"}`.  With `--trace 0` the
metrics are setup_s, prompt_s and peak_rss_mb; with `--trace 1` they are the
per-layer metrics of `tracing.PER_LAYER`.  See README.md.
"""

import os
import time

# Set-up is timed from here: a cold start, before numpy or the program loads.
STARTED = time.perf_counter()

# One BLAS thread, set before numpy loads anywhere in this process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import csv
import hashlib
import importlib
import json
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import checks
import reference
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

# baseline -> (model checkpoint, prompt file or None) it is evaluated with
BASELINE_ARTIFACTS = {
    "full_zs": ("teacher.pstl", None),
    "compressed_pt": ("student.pstl", "prompt_student.pspa"),
    "direct_transfer": ("teacher.pstl", "prompt_student.pspa"),
    "post": ("teacher.pstl", "prompt_transferred.pspa"),
    "post_dp": ("teacher.pstl", "prompt_transferred_dp.pspa"),
}
# transferred prompt -> (its source prompt, its loss history)
TRANSFERS = {
    "post": ("prompt_transferred.pspa", "prompt_student.pspa", "prompt_transferred_loss.csv"),
    "post_dp": ("prompt_transferred_dp.pspa", "prompt_student_dp.pspa", "prompt_transferred_dp_loss.csv"),
}
MODULES = ("pipeline", "model", "autograd", "optim", "tuning", "accountant", "attacks", "artifacts", "corpus")


def import_program() -> dict:
    """The promptxfer modules from this checkout's src/, nowhere else."""
    if not (SRC / "promptxfer" / "__init__.py").is_file():
        raise SystemExit(f"promptxfer sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    px = {name: importlib.import_module(f"promptxfer.{name}") for name in MODULES}
    if Path(px["pipeline"].__file__).resolve().parent != SRC / "promptxfer":
        raise SystemExit(f"promptxfer was imported from {px['pipeline'].__file__}, not {SRC}")
    return px


def environment() -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = None
    try:
        # the ceiling keeps git from reporting a repository that merely contains this checkout
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        sha = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        sha = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "promptxfer").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
    }


# -- operations ------------------------------------------------------------------


def reload_artifacts(px, saves: tracing.SaveLog) -> list[str]:
    """Reload every written checkpoint and prompt through the program's
    readers and compare with what was in memory.  One failure message per
    reload that fails; the count of reloads is len(models) + len(prompts)."""
    art = px["artifacts"]
    failures = []
    for path, params in saves.models.items():
        name = os.path.basename(path)
        try:
            loaded = art.load_model(path)
        except art.ArtifactError as e:
            wide = sum(a.dtype == np.float64 for a in params.values())
            failures.append(
                f"reload {name}: {e} [{wide} of {len(params)} in-memory parameter arrays are float64; "
                f"the file stores float32 (float64 leak in autograd.gelu / tmean)]"
            )
            continue
        for key, arr in params.items():
            got = loaded.params[key].data
            if got.dtype != arr.dtype or not np.array_equal(got, arr):
                failures.append(f"reload {name}: parameter {key} does not reproduce the in-memory weights")
                break
    for path, (matrix, dp_meta) in saves.prompts.items():
        name = os.path.basename(path)
        try:
            loaded = art.load_prompt(path)
        except art.ArtifactError as e:
            failures.append(f"reload {name}: {e}")
            continue
        meta = loaded.dp_meta.to_dict() if loaded.dp_meta else None
        if not np.array_equal(loaded.matrix, matrix) or meta != dp_meta:
            failures.append(f"reload {name}: prompt does not reproduce the in-memory matrix and dp_meta")
    return failures


# -- checks ------------------------------------------------------------------------


def verify(px, wl: workloads.Workload, report: dict, seed_dir: Path, seed: int) -> list[str]:
    """Every output check of the workload; returns the failure messages."""
    corpus = px["corpus"]
    with open(seed_dir / "task_manifest.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    private, public, _ = corpus.gen_synth_pair(corpus.SynthTaskSpec.from_dict(manifest["spec"]))
    test, train = private.split("test"), private.split("train")
    public = public.subset(range(workloads.TRANSFER_BATCH))

    models = {
        name: reference.Reference(*reference.read_checkpoint(seed_dir / name))
        for name in ("teacher.pstl", "student.pstl")
    }
    prompts = {p.name: reference.read_prompt(p) for p in seed_dir.glob("*.pspa")}
    failures = []
    if models["teacher.pstl"].p["tok_emb"].shape[0] != manifest["vocab_size"]:
        failures.append("teacher vocabulary size differs from the task manifest")

    for kind in wl.baselines:
        model_file, prompt_file = BASELINE_ARTIFACTS[kind]
        matrix = prompts[prompt_file][1] if prompt_file else None
        lp = models[model_file].class_log_probs(test.sequences, test.verbalizers, matrix)
        reported = report["baselines"][kind]["per_seed"][str(seed)]
        failures += checks.check_accuracy(kind, reported, lp, test.labels)

    alpha = report["resolved_alphas"][str(seed)]
    teacher, student = models["teacher.pstl"], models["student.pstl"]
    for kind, (target, source, history) in TRANSFERS.items():
        if kind not in wl.baselines:
            continue
        src_meta, src = prompts[source]
        start = reference.start_prompt(src_meta["init_seed"], src_meta["l"], src_meta["d"])
        seqs, verb = public.sequences, public.verbalizers
        s_prompted = student.class_log_probs(seqs, verb, src)
        s_plain = student.class_log_probs(seqs, verb)
        t_plain = teacher.class_log_probs(seqs, verb)

        def objective(prompt):
            return reference.kl_mix_objective(
                s_prompted, s_plain, t_plain, teacher.class_log_probs(seqs, verb, prompt), alpha
            )

        with open(seed_dir / history, newline="", encoding="utf-8") as fh:
            first_total = float(next(csv.DictReader(fh))["total"])
        failures += checks.check_transfer_objective(
            kind, first_total, objective(start), objective(prompts[target][1])
        )

    if "post_dp" in wl.baselines:
        n = len(train)
        q = workloads.TUNE_BATCH / n
        steps = workloads.TUNE_EPOCHS * -(-n // workloads.TUNE_BATCH)
        for name in ("prompt_student_dp.pspa", "prompt_transferred_dp.pspa"):
            failures += checks.check_dp(name, prompts[name][0]["dp_meta"], q, steps)
        if prompts["prompt_transferred_dp.pspa"][0]["dp_meta"] != prompts["prompt_student_dp.pspa"][0]["dp_meta"]:
            failures.append("p_t_dp does not carry p_s_dp's dp_meta unchanged")

    failures += checks.check_data_roles(report["data_access"])

    if wl.attack:
        for tag in ("nondp", "dp"):
            with open(seed_dir / f"attack_{tag}.csv", newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
            with open(seed_dir / f"attack_{tag}.json", encoding="utf-8") as fh:
                summary = json.load(fh)
            if summary["auc"] != report["attack_metrics"][tag]["auc_per_seed"][str(seed)]:
                failures.append(f"attack_{tag}: report.json and attack_{tag}.json disagree on the AUC")
            failures += checks.check_attack_auc(
                f"attack_{tag}",
                summary["auc"],
                [float(r["score"]) for r in rows],
                [r["member_flag"] == "1" for r in rows],
            )
    return failures


# -- main --------------------------------------------------------------------------


def expected_hooks(wl: workloads.Workload) -> set[str]:
    hooks = {"corpus", "stage", "forward", "eval_rows", "backward", "gc", "optim", "tune", "record", "save", "load"}
    if wl.transfer_stages:
        hooks.add("transfer")
    if wl.has_dp:
        hooks |= {"dp_step", "calibrate"}
    if wl.attack:
        hooks |= {"lira", "shadow", "confidence"}
    return hooks


def expected_counts(wl: workloads.Workload, n_private_train: int) -> dict[str, int]:
    return {
        "distill.pretrain_steps": workloads.PRETRAIN_STEPS,
        "distill.kd_steps": workloads.KD_STEPS,
        "transfer.steps": workloads.TRANSFER_STEPS * wl.transfer_stages,
        "tuning.dp_steps": wl.dp_steps(n_private_train),
        "attacks.shadows": 2 * workloads.ATTACK_SHADOWS if wl.attack else 0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int, help="nominal run length; the work is fixed by the config")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    px = import_program()
    pipeline = px["pipeline"]
    wl = workloads.WORKLOADS[args.workload]
    run_root = OUT / f"{wl.name}-seed{args.seed}"
    shutil.rmtree(run_root, ignore_errors=True)
    run_root.mkdir(parents=True)
    config_path = run_root / "workload_config.json"
    config_path.write_text(json.dumps(wl.config(args.seed, str(run_root / "run")), indent=2))
    config = pipeline.load_config(config_path)

    patches = tracing.Patches()
    boundary = tracing.Boundary()
    saves = tracing.SaveLog()
    boundary.install(patches, pipeline)
    saves.install(patches, px["artifacts"])
    tracer = None
    if args.trace:
        tracer = tracing.Tracer(boundary)
        tracer.install(patches, px)

    failures: list[str] = []
    t_start = time.perf_counter()
    try:
        report = pipeline.run_pipeline(config).to_dict()
    except pipeline.StageError as e:
        report = None
        failures.append(f"run_pipeline: {e}")
    t_end = time.perf_counter()
    peak_mb = tracing.peak_rss_mb()
    if report is None:
        # one seed per run, so a failed stage fails the run; the stages
        # before it are not reported
        attempted = failed = 1
    else:
        reload_failures = reload_artifacts(px, saves)
        attempted = len(report["timings"]) + len(saves.models) + len(saves.prompts)
        failed = len(reload_failures)
        for msg in reload_failures:
            print(f"failed operation: {msg}", file=sys.stderr)
    patches.restore()

    if report is not None:
        try:
            failures += verify(px, wl, report, run_root / "run" / f"seed{args.seed}", args.seed)
        except (OSError, KeyError, ValueError, StopIteration) as e:
            failures.append(f"output check could not run: {type(e).__name__}: {e}")
    for msg in failures:
        print(f"check failed: {msg}", file=sys.stderr)
    if boundary.prompt_start is None:
        raise SystemExit("no prompt-tuning call was seen; set-up and prompt time are undefined")

    setup_s = boundary.prompt_start - STARTED
    prompt_s = t_end - boundary.prompt_start
    if tracer is None:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "prompt_s": {"value": prompt_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    else:
        tracer.require(expected_hooks(wl))
        values = tracer.metrics(t_start - STARTED, setup_s, prompt_s)
        tracer.require_counts(expected_counts(wl, config.task.n_private_train), values)
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
        env = environment()
        print("environment " + json.dumps(env, sort_keys=True))
        (run_root / "trace.json").write_text(
            json.dumps({"environment": env, "peak_rss_mb": peak_mb, "metrics": values}, indent=2)
        )
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
