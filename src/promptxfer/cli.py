"""Command-line entry points: distill, tune, transfer, attack, eval, pipeline.

Every subcommand is one `pipeline.run_pipeline` call over the same stage
plan, naming the plan outputs it builds: `distill`, `tune`, `transfer` and
`attack` those in `OUTPUTS`, whatever the config's baselines and
`attack.enabled`; `eval` and `pipeline` what the config asks for, its
baselines (`eval` those named by `--baseline`, when any) and the attack
when it is enabled.  A run builds those outputs and the rows their inputs
reach.  Nothing is read back from earlier runs; each subcommand trains what
it needs from scratch.

Exit codes: 0 success, 2 configuration error, 3 stage failure.
"""

import os

# Single-threaded BLAS before numpy loads: tiny matrices gain nothing from
# threads and reductions stay bitwise reproducible.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import logging
import sys
from dataclasses import replace

from . import pipeline as pl

log = logging.getLogger("promptxfer")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STAGE = 3

# subcommand -> the STAGE_PLAN outputs it builds
OUTPUTS = {"distill": ("student",), "tune": ("p_s", "p_s_dp"), "transfer": ("p_t", "p_t_dp"), "attack": ("attacks",)}


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=str, default=None, help="experiment config JSON")
    parser.add_argument("--seed", type=int, default=None, help="override the config's seed list")
    parser.add_argument("--out", type=str, default=None, help="output directory override")


def _load_config(args) -> pl.ExperimentConfig:
    config = pl.load_config(args.config) if args.config else pl.ExperimentConfig()
    overrides: dict = {}
    if args.seed is not None:
        overrides["seeds"] = (args.seed,)
    if args.out is not None:
        overrides["output_dir"] = args.out
    return replace(config, **overrides)


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = argparse.ArgumentParser(
        prog="promptxfer",
        description="Distill, privately prompt-tune, transfer, attack, and evaluate tiny LMs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("distill", "pretrain the teacher and distill the student"),
        ("tune", "distill, then tune the student-side soft prompts on the private train split"),
        ("transfer", "distill and tune, then transfer the tuned prompts to the teacher via public data"),
        ("attack", "distill, then run the membership-inference harness against tuned prompts"),
        ("eval", "build and evaluate the requested baselines (default: the config's)"),
        ("pipeline", "run the whole workflow end to end"),
    ):
        p = sub.add_parser(name, help=help_text)
        _common_flags(p)
        if name == "eval":
            p.add_argument("--baseline", action="append", default=None, help="baseline(s) to evaluate")

    args = parser.parse_args(argv)
    try:
        config = _load_config(args)
        wanted = OUTPUTS.get(args.command)
        if getattr(args, "baseline", None):  # eval's, in place of the config's baselines
            pl.check_baselines(args.baseline)
            wanted = (*args.baseline, *(("attacks",) if config.attack.enabled else ()))
        report = pl.run_pipeline(config, wanted)
    except pl.ConfigError as e:
        log.error("config error: %s", e)
        return EXIT_CONFIG
    except pl.StageError as e:
        log.error("%s", e)
        return EXIT_STAGE
    for kind, row in report.baselines.items():
        log.info("%s: mean %.4f (std %.4f)", kind, row["mean"], row["std"])
    if report.seed_errors:
        log.error("failed seeds: %s", report.seed_errors)
        return EXIT_STAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
