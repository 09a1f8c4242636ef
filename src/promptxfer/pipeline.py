"""Config-driven orchestration of the distill/tune/transfer workflow.

One plan, `STAGE_PLAN`, runs every seed.  It is a tuple of `Row`s; each row
names its stage, a function `fn(run, *inputs) -> output`, the names of the
values it reads and the name of the value it builds.  The rows are, in
order: pretrain, distillation, the student prompt tunings (plain and DP),
`alpha`, the transfers, the control baselines, one `eval` row per baseline
(its inputs are the baseline's (model, prompt) pair, `BASELINE_INPUTS`, and
its output is named after the baseline) and the membership attack.

A seed's run loads its data (`stage_data`), then walks back from what the
config asks for, the requested baselines and "attacks" when the attack is
enabled, through the rows' declared inputs, and runs, in plan order, exactly
the rows that build something on that walk.  Each runs in its own timed
call; no stage runs inside another.  `run_pipeline(config, through=name)`
stops after the last row of that name, so every CLI subcommand runs a
prefix of the same plan.

The `alpha` row computes the heuristic transfer weight from the teacher,
the student and the student's plain prompt.  When `transfer_alpha` is a
float, that value is put in the run's outputs before the walk, so the row
never runs.

Row functions look up every program function they call (`tune_prompt`,
`transfer_prompt`, `make_dp_params`, `lira_attack`, ...) through this
module's globals at call time, and the runner calls `SeedRun.timed` through
the class, so a wrapper installed on either after import takes effect.

Every dataset hand-off is recorded in a data-access ledger keyed by
(seed, stage, role); `tests/test_pipeline.py` asserts that the teacher-side
stages never receive the private train split.
"""
from __future__ import annotations

import csv
import hashlib
import json
import logging
import os
import time
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import artifacts as art
from .attacks import AttackResult, lira_attack, write_attack_csv, write_attack_summary
from .corpus import (
    LabeledDataset,
    SynthTaskSpec,
    Vocab,
    build_vocab,
    default_task_spec,
    gen_synth_pair,
    load_csv,
    tokenize_corpus,
    with_label_noise,
    write_manifest,
)
from .distill import (
    KdConfig,
    KdWeights,
    default_layer_indices,
    distill,
    init_student_from_teacher,
    train_lm,
    write_loss_history,
)
from .model import ModelConfig, SoftPrompt, TransformerLM, classify_batch, init_model, init_prompt
from .transfer import HeuristicInputs, TransferConfig, alpha_heuristic, transfer_prompt
from .tuning import TuneConfig, make_dp_params, tune_prompt

log = logging.getLogger(__name__)

ALL_BASELINES = (
    "full_zs",
    "full_pt",
    "compressed_pt",
    "direct_transfer",
    "post",
    "post_dp",
    "finetuned_control",
)


class ConfigError(ValueError):
    """Invalid experiment configuration (CLI exit code 2)."""


class StageError(RuntimeError):
    """A pipeline stage failed (CLI exit code 3)."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[stage {stage}] {message}")
        self.stage = stage


def seed_stream(root_seed: int, name: str, index: int = 0) -> int:
    """Named, reproducible child seed."""
    digest = hashlib.sha256(f"{root_seed}:{name}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


# -- configuration ------------------------------------------------------------


@dataclass
class ArchSpec:
    n_layers: int = 4
    d_model: int = 64
    n_heads: int = 4
    max_seq_len: int = 64
    tie_lm_head: bool = False

    def to_model_config(self, vocab_size: int) -> ModelConfig:
        return ModelConfig(
            n_layers=self.n_layers,
            d_model=self.d_model,
            n_heads=self.n_heads,
            vocab_size=vocab_size,
            max_seq_len=self.max_seq_len,
            tie_lm_head=self.tie_lm_head,
        )


@dataclass
class PretrainConfig:
    steps: int = 1200
    batch_size: int = 16
    learning_rate: float = 3e-3

    def __post_init__(self):
        if self.steps <= 0 or self.batch_size <= 0 or self.learning_rate <= 0:
            raise ConfigError("pretrain.steps, batch_size and learning_rate must be positive")


@dataclass
class PromptSpec:
    length: int = 8


@dataclass
class DpSpec:
    epsilon: float = 8.0
    delta: float | None = None
    clip_norm: float = 1.0


@dataclass
class AttackConfig:
    enabled: bool = False
    n_shadows: int = 8
    pool_size: int = 96
    label_noise: float = 0.15
    epochs: int = 40
    learning_rate: float = 3e-2
    batch_size: int = 16
    prompt_length: int = 4
    with_dp: bool = True


@dataclass
class CsvTask:
    train: str
    test: str
    public: str
    corpus: str
    template_suffix: str = ", it was"
    verbalizer_words: tuple[tuple[str, ...], ...] = ()


@dataclass
class ExperimentConfig:
    teacher: ArchSpec = field(default_factory=ArchSpec)
    student_layers: int = 2
    pretrain: PretrainConfig = field(default_factory=PretrainConfig)
    kd: dict = field(default_factory=dict)  # KdConfig overrides; indices default first/last
    prompt: PromptSpec = field(default_factory=PromptSpec)
    tune: TuneConfig = field(default_factory=lambda: TuneConfig(epochs=20, learning_rate=1e-2, batch_size=16))
    dp: DpSpec = field(default_factory=DpSpec)
    transfer_alpha: float | str = "heuristic"
    transfer: TransferConfig = field(default_factory=TransferConfig)
    task: SynthTaskSpec | CsvTask = field(default_factory=default_task_spec)
    baselines: tuple[str, ...] = ("full_zs", "compressed_pt", "direct_transfer", "post")
    attack: AttackConfig = field(default_factory=AttackConfig)
    public_subset: int | None = None
    seeds: tuple[int, ...] = (0, 1, 2)
    output_dir: str = "runs/default"

    def __post_init__(self):
        unknown = set(self.baselines) - set(ALL_BASELINES)
        if unknown:
            raise ConfigError(f"unknown baselines: {sorted(unknown)}")
        if self.student_layers < 1 or self.student_layers > self.teacher.n_layers:
            raise ConfigError("student_layers must lie in [1, teacher.n_layers]")
        if isinstance(self.transfer_alpha, str) and self.transfer_alpha != "heuristic":
            raise ConfigError("transfer_alpha must be a float in [0,1] or 'heuristic'")
        if not isinstance(self.transfer_alpha, str) and not 0 <= float(self.transfer_alpha) <= 1:
            raise ConfigError("transfer_alpha must lie in [0, 1]")
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        try:
            kd = self.kd_config()
        except (TypeError, ValueError) as e:
            raise ConfigError(f"invalid kd config: {e}") from e
        if kd.student_layer_indices[-1] >= self.teacher.n_layers:
            raise ConfigError("kd.student_layer_indices must lie in [0, teacher.n_layers)")
        if isinstance(self.task, CsvTask):
            for attr in ("train", "test", "public", "corpus"):
                path = getattr(self.task, attr)
                if not os.path.exists(path):
                    raise ConfigError(f"task.{attr} path does not exist: {path}")
            if not self.task.verbalizer_words:
                raise ConfigError("csv task requires verbalizer_words")

    def kd_config(self) -> KdConfig:
        kw = dict(self.kd)
        weights = kw.pop("weights", None)
        indices = kw.pop("student_layer_indices", None)
        if indices is None:
            indices = default_layer_indices(self.teacher.n_layers, self.student_layers)
        cfg = KdConfig(student_layer_indices=tuple(indices), **kw)
        if weights is not None:
            cfg.weights = weights if isinstance(weights, KdWeights) else KdWeights(**weights)
        return cfg

    def digest(self) -> str:
        return hashlib.sha256(
            json.dumps(config_to_dict(self), sort_keys=True).encode()
        ).hexdigest()[:16]


# Keys a config may carry that set nothing: retired options, and fields the
# pipeline overwrites.  `config_from_dict` accepts each only at a value listed
# here (any value where the list is None) and drops it; `config_to_dict`
# writes none of them.  Key: (section, key), section None for the top level.
FIXED_KEYS: dict[tuple[str | None, str], tuple[tuple | None, str]] = {
    (None, "threads"): ((1,), "runs are single-threaded"),
    (None, "strict_deterministic"): ((False, True), "runs are always deterministic"),
    # the early-stopping rule pretraining and KD once had
    ("pretrain", "plateau_window"): (None, "pretraining runs pretrain.steps steps"),
    ("pretrain", "plateau_tolerance"): (None, "pretraining runs pretrain.steps steps"),
    ("pretrain", "check_interval"): (None, "pretraining runs pretrain.steps steps"),
    ("kd", "plateau_window"): (None, "distillation runs kd.max_steps steps"),
    ("kd", "plateau_tolerance"): (None, "distillation runs kd.max_steps steps"),
    ("kd", "checkpoint_interval"): (None, "distillation runs kd.max_steps steps"),
    # the one POST variant the program implements
    ("prompt", "init_scheme"): (("gaussian",), "prompts start from Gaussian rows"),
    ("transfer", "label_space"): (("class_distribution",), "the transfer compares class distributions"),
    ("transfer", "init_from"): (("initial",), "the transfer starts from the regenerated initial rows"),
    ("kd", "freeze_embedding"): ((False,), "distillation trains every student parameter"),
    ("kd", "freeze_lm_head"): ((False,), "distillation trains every student parameter"),
    # fields that became arguments of `tune_prompt` and `transfer_prompt`
    ("tune", "seed"): ((0,), "the tuning seed is derived from `seeds`"),
    ("transfer", "seed"): ((0,), "the transfer seed is derived from `seeds`"),
    ("transfer", "alpha"): ((0.5,), "the transfer's alpha is set by `transfer_alpha`"),
    # set per stage from other keys
    ("task", "seed"): ((0,), "the task seed is derived from `seeds`"),
    ("tune", "dp"): ((None,), "DP-SGD is set by `dp`"),
}


def _drop_fixed_keys(blob: dict) -> dict:
    """`blob` without its FIXED_KEYS; ConfigError for one at another value."""
    blob = dict(blob)
    for (section, key), (allowed, reason) in FIXED_KEYS.items():
        holder = blob if section is None else blob.get(section)
        if not isinstance(holder, dict) or key not in holder:
            continue
        if section is not None:
            holder = blob[section] = dict(holder)
        value = holder.pop(key)
        if allowed is not None and not any(
            value == a and isinstance(value, bool) == isinstance(a, bool) for a in allowed
        ):
            name = key if section is None else f"{section}.{key}"
            values = " or ".join(json.dumps(a) for a in allowed)
            raise ConfigError(f"{name}: {reason}, so only {values} is accepted")
    return blob


def config_to_dict(cfg: ExperimentConfig) -> dict:
    def plain(obj):
        if isinstance(obj, (SynthTaskSpec,)):
            return {"kind": "synthetic", **obj.to_dict()}
        if isinstance(obj, CsvTask):
            return {
                "kind": "csv",
                "train": obj.train,
                "test": obj.test,
                "public": obj.public,
                "corpus": obj.corpus,
                "template_suffix": obj.template_suffix,
                "verbalizer_words": [list(v) for v in obj.verbalizer_words],
            }
        if hasattr(obj, "__dataclass_fields__"):
            return {k: plain(getattr(obj, k)) for k in obj.__dataclass_fields__}
        if isinstance(obj, (list, tuple)):
            return [plain(v) for v in obj]
        if isinstance(obj, dict):
            return {k: plain(v) for k, v in obj.items()}
        return obj

    out = plain(cfg)
    for section, key in FIXED_KEYS:
        (out if section is None else out.get(section, {})).pop(key, None)
    return out


def config_from_dict(blob: dict) -> ExperimentConfig:
    """The ExperimentConfig that `blob` describes.  A section that `blob`
    gives sets only the keys it names; the rest keep the default
    experiment's values (`ExperimentConfig()`), not their class defaults."""
    blob = _drop_fixed_keys(blob)
    kwargs: dict = {}
    defaults = ExperimentConfig()
    for key in ("teacher", "pretrain", "prompt", "tune", "dp", "transfer", "attack"):
        if key in blob:
            kwargs[key] = replace(getattr(defaults, key), **blob.pop(key))
    if "task" in blob:
        task = dict(blob.pop("task"))
        kind = task.pop("kind", "synthetic")
        if kind == "synthetic":
            kwargs["task"] = SynthTaskSpec.from_dict({**task, "seed": 0})
        elif kind == "csv":
            task["verbalizer_words"] = tuple(tuple(v) for v in task.get("verbalizer_words", ()))
            kwargs["task"] = CsvTask(**task)
        else:
            raise ConfigError(f"unknown task kind {kind!r}")
    for key in ("student_layers", "kd", "transfer_alpha", "baselines", "public_subset",
                "seeds", "output_dir"):
        if key in blob:
            kwargs[key] = blob.pop(key)
    blob.pop("kind", None)
    if blob:
        raise ConfigError(f"unknown config keys: {sorted(blob)}")
    if "baselines" in kwargs:
        kwargs["baselines"] = tuple(kwargs["baselines"])
    if "seeds" in kwargs:
        kwargs["seeds"] = tuple(int(s) for s in kwargs["seeds"])
    return ExperimentConfig(**kwargs)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            blob = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}")
    try:
        return config_from_dict(blob)
    except ConfigError:
        raise
    except KeyError as e:
        raise ConfigError(f"invalid config: missing key {e}") from e
    except (TypeError, ValueError) as e:  # a nested key or value the dataclasses reject
        raise ConfigError(f"invalid config: {e}") from e


# -- data-access ledger --------------------------------------------------------


class DataAccessLedger:
    """Records which dataset roles each stage consumed."""

    def __init__(self):
        self.records: list[dict] = []

    def log(self, seed: int, stage: str, role: str, dataset_name: str) -> None:
        self.records.append({"seed": seed, "stage": stage, "role": role, "dataset": dataset_name})

    def to_list(self) -> list[dict]:
        return list(self.records)


# -- per-seed context ----------------------------------------------------------


@dataclass
class TaskData:
    private_train: LabeledDataset
    private_test: LabeledDataset
    public: LabeledDataset
    corpus_ids: list[np.ndarray]
    vocab: Vocab


@dataclass
class SeedRun:
    config: ExperimentConfig
    seed: int
    ledger: DataAccessLedger
    out_dir: str
    data: TaskData | None = None
    outputs: dict = field(default_factory=dict)  # STAGE_PLAN output name -> value
    timings: list[dict] = field(default_factory=list)
    artifact_paths: dict = field(default_factory=dict)

    def path(self, name: str) -> str:
        os.makedirs(self.out_dir, exist_ok=True)
        p = os.path.join(self.out_dir, name)
        self.artifact_paths[name] = p
        return p

    def timed(self, stage: str, fn: Callable, amortizable: bool = False):
        t0 = time.perf_counter()
        try:
            result = fn()
        except (ConfigError, StageError):
            raise
        except Exception as e:  # stage-tagged diagnostics
            raise StageError(stage, str(e)) from e
        self.timings.append(
            {
                "stage": stage,
                "seconds": time.perf_counter() - t0,
                "seed": self.seed,
                "amortizable": amortizable,
            }
        )
        return result


# -- stages ---------------------------------------------------------------------


def stage_data(run: SeedRun) -> None:
    cfg = run.config

    def build() -> TaskData:
        if isinstance(cfg.task, SynthTaskSpec):
            spec = replace(cfg.task, seed=seed_stream(run.seed, "task"))
            private, public, corpus = gen_synth_pair(spec)
            vocab = private.vocab
            write_manifest(run.path("task_manifest.json"), spec, vocab)
            corpus_ids = tokenize_corpus(corpus, vocab)
        else:
            with open(cfg.task.corpus, "r", encoding="utf-8") as fh:
                corpus = [line.strip() for line in fh if line.strip()]
            vocab = build_vocab(
                corpus
                + [cfg.task.template_suffix]
                + [" ".join(ws) for ws in cfg.task.verbalizer_words]
            )
            private_train = load_csv(
                cfg.task.train, cfg.task.template_suffix, cfg.task.verbalizer_words, vocab,
                split_tag="train", name="private",
            )
            private_test = load_csv(
                cfg.task.test, cfg.task.template_suffix, cfg.task.verbalizer_words, vocab,
                split_tag="test", name="private",
            )
            public = load_csv(
                cfg.task.public, cfg.task.template_suffix, cfg.task.verbalizer_words, vocab,
                split_tag="train", name="public",
            )
            corpus_ids = tokenize_corpus(corpus, vocab)
            return TaskData(private_train, private_test, public, corpus_ids, vocab)
        return TaskData(private.split("train"), private.split("test"), public, corpus_ids, vocab)

    run.data = run.timed("data", build)
    max_len = max(len(s) for s in run.data.corpus_ids)
    for ds in (run.data.private_train, run.data.private_test, run.data.public):
        max_len = max(max_len, max(len(s) for s in ds.sequences))
    if cfg.prompt.length + max_len > cfg.teacher.max_seq_len:
        raise ConfigError(
            f"max_seq_len {cfg.teacher.max_seq_len} is too small for prompt length "
            f"{cfg.prompt.length} plus the longest templated input ({max_len})"
        )


def stage_pretrain(run: SeedRun) -> TransformerLM:
    cfg = run.config
    run.ledger.log(run.seed, "pretrain", "kd_corpus", "corpus")
    teacher = init_model(cfg.teacher.to_model_config(run.data.vocab.size), seed_stream(run.seed, "teacher_init"))
    pt = cfg.pretrain
    history = train_lm(
        teacher, run.data.corpus_ids, pt.steps, pt.batch_size, pt.learning_rate, seed_stream(run.seed, "pretrain")
    )
    write_loss_history(run.path("pretrain_loss.csv"), history)
    teacher.provenance = {"stage": "pretrain", "seed": run.seed}
    art.save_model(run.path("teacher.pstl"), teacher)
    return teacher


def stage_distill(run: SeedRun, teacher: TransformerLM) -> TransformerLM:
    run.ledger.log(run.seed, "kd", "kd_corpus", "corpus")
    student, history = distill(teacher, run.data.corpus_ids, run.config.kd_config(), seed_stream(run.seed, "kd"))
    write_loss_history(run.path("kd_loss.csv"), history)
    art.save_model(run.path("student.pstl"), student)
    return student


def stage_control_student(run: SeedRun, teacher: TransformerLM) -> TransformerLM:
    """Same init as the distilled student, but plain LM training instead."""
    run.ledger.log(run.seed, "control_lm", "kd_corpus", "corpus")
    kd_cfg = run.config.kd_config()
    control = init_student_from_teacher(teacher, kd_cfg)
    history = train_lm(
        control, run.data.corpus_ids, kd_cfg.max_steps, kd_cfg.batch_size,
        run.config.pretrain.learning_rate, seed_stream(run.seed, "control_lm"),
    )
    control.provenance["trained_by"] = "plain_lm"
    write_loss_history(run.path("control_lm_loss.csv"), history)
    art.save_model(run.path("control_student.pstl"), control)
    return control


def _under_dp(tune_cfg: TuneConfig, dataset_size: int, dp: DpSpec) -> TuneConfig:
    """`tune_cfg` under DP-SGD, with sigma calibrated so that its epochs over
    `dataset_size` examples spend at most `dp.epsilon`."""
    params = make_dp_params(
        dataset_size=dataset_size,
        batch_size=tune_cfg.batch_size,
        epochs=tune_cfg.epochs,
        epsilon=dp.epsilon,
        delta=dp.delta,
        clip_norm=dp.clip_norm,
    )
    return replace(tune_cfg, dp=params)


def _accuracy(model: TransformerLM, dataset: LabeledDataset, prompt=None) -> float:
    preds = classify_batch(model, dataset.sequences, dataset.verbalizers, prompt=prompt)
    return float(np.mean(preds == dataset.labels))


def stage_alpha(run: SeedRun, teacher: TransformerLM, student: TransformerLM, p_s: SoftPrompt) -> float:
    """Heuristic alpha from measured teacher zero-shot and prompted-student
    accuracy (both on the private test split, an eval-side measurement)."""
    test = run.data.private_test
    run.ledger.log(run.seed, "eval", "private_test", test.name)
    zs = _accuracy(teacher, test)
    compressed = _accuracy(student, test, prompt=p_s)
    rg = 1.0 / test.n_classes
    try:
        alpha = alpha_heuristic(
            HeuristicInputs(zero_shot=100 * zs, compressed=100 * compressed, random_guess=100 * rg)
        )
    except ValueError:
        log.warning("alpha heuristic undefined (compressed == random guess); falling back to 0.5")
        alpha = 0.5
    log.info("seed %d: resolved alpha = %.3f (ZS %.3f, compressed %.3f)", run.seed, alpha, zs, compressed)
    return alpha


def _public_view(run: SeedRun) -> LabeledDataset:
    public = run.data.public
    if run.config.public_subset is not None and run.config.public_subset < len(public):
        public = public.subset(range(run.config.public_subset), name=f"{public.name}[:{run.config.public_subset}]")
    return public


def eval_baseline(run: SeedRun, model: TransformerLM, prompt: SoftPrompt | None = None) -> float:
    """Test accuracy of `model`, prompted by `prompt` unless it is None."""
    test = run.data.private_test
    run.ledger.log(run.seed, "eval", "private_test", test.name)
    return _accuracy(model, test, prompt=prompt)


def stage_attack(run: SeedRun, student: TransformerLM) -> dict:
    """LiRA on the student's prompt-tuning set, non-DP and (optionally) DP."""
    cfg = run.config
    atk = cfg.attack
    pool_size = min(atk.pool_size, len(run.data.private_train))
    pool = run.data.private_train.subset(range(pool_size), name="candidate_pool")
    pool = with_label_noise(pool, atk.label_noise, seed_stream(run.seed, "attack_noise"))
    run.ledger.log(run.seed, "attacks", "private_train", pool.name)
    rng = np.random.default_rng(seed_stream(run.seed, "attack_members"))
    members = np.sort(rng.choice(len(pool), size=len(pool) // 2, replace=False))
    # the attack reads only the tuned prompts, so no history is recorded
    tune_cfg = TuneConfig(epochs=atk.epochs, learning_rate=atk.learning_rate, batch_size=atk.batch_size, eval_every=0)
    results: dict[str, AttackResult] = {}

    def train_fn_factory(use_dp: bool):
        def train_fn(dataset: LabeledDataset, seed: int) -> SoftPrompt:
            prompt = init_prompt(student, atk.prompt_length, seed)
            config = _under_dp(tune_cfg, len(dataset), cfg.dp) if use_dp else tune_cfg
            tuned, _ = tune_prompt(student, prompt, dataset, config, seed)
            return tuned

        return train_fn

    variants = [("nondp", False)] + ([("dp", True)] if atk.with_dp else [])
    for tag, use_dp in variants:
        train_fn = train_fn_factory(use_dp)
        target = train_fn(pool.subset(members), seed_stream(run.seed, f"attack_target_{tag}"))
        res = lira_attack(
            student,
            pool,
            train_fn,
            target,
            members,
            n_shadows=atk.n_shadows,
            seed=seed_stream(run.seed, f"attack_{tag}"),
        )
        results[tag] = res
        write_attack_csv(res, run.path(f"attack_{tag}.csv"))
        write_attack_summary(res, run.path(f"attack_{tag}.json"), seeds=[run.seed])
    return {tag: {"auc": r.auc, "tpr_at_1pct_fpr": r.tpr_at_1pct_fpr} for tag, r in results.items()}


# -- the stage plan -------------------------------------------------------------


@dataclass(frozen=True)
class Row:
    """One STAGE_PLAN entry: `fn(run, *inputs)` builds the value named
    `output` from the values named `inputs`."""

    name: str
    fn: Callable
    inputs: tuple[str, ...]
    output: str
    amortizable: bool = False


def _tuning_row(name: str, model: str, output: str, artifact: str, dp: bool = False) -> Row:
    """A row that tunes a prompt on `model` over the private train split,
    under DP-SGD when `dp`, and writes it to `artifact`."""

    def tune(run: SeedRun, lm: TransformerLM) -> SoftPrompt:
        train = run.data.private_train
        run.ledger.log(run.seed, name, "private_train", train.name)
        prompt = init_prompt(lm, run.config.prompt.length, seed_stream(run.seed, "prompt_init"))
        tune_cfg = _under_dp(run.config.tune, len(train), run.config.dp) if dp else run.config.tune
        seed = seed_stream(run.seed, name)
        tuned, history = tune_prompt(lm, prompt, train, tune_cfg, seed)
        write_loss_history(run.path(artifact.replace(".pspa", "_history.csv")), history)
        art.save_prompt(run.path(artifact), tuned, tuning_config_digest=tune_cfg.digest(seed))
        return tuned

    return Row(name, tune, (model,), output)


def _transfer_row(name: str, source: str, prompt: str, output: str, artifact: str) -> Row:
    """A row that transfers `prompt`, tuned on the `source` model, to the
    teacher on the public set, and writes it to `artifact`."""

    def transfer(run: SeedRun, teacher: TransformerLM, lm: TransformerLM, p_s: SoftPrompt, alpha: float):
        public = _public_view(run)
        run.ledger.log(run.seed, name, "public", public.name)
        seed = seed_stream(run.seed, name)
        p_t, history = transfer_prompt(teacher, lm, p_s, public, run.config.transfer, alpha, seed)
        write_loss_history(run.path(artifact.replace(".pspa", "_loss.csv")), history)
        art.save_prompt(run.path(artifact), p_t)
        return p_t

    return Row(name, transfer, ("teacher", source, prompt, "alpha"), output)


# baseline -> the outputs it is evaluated with: (model,) or (model, prompt)
BASELINE_INPUTS: dict[str, tuple[str, ...]] = {
    "full_zs": ("teacher",),
    # upper-bound control; explicitly confidentiality-violating (private
    # data reaches the teacher side)
    "full_pt": ("teacher", "p_full"),
    "compressed_pt": ("student", "p_s"),
    "direct_transfer": ("teacher", "p_s"),
    "post": ("teacher", "p_t"),
    "post_dp": ("teacher", "p_t_dp"),
    "finetuned_control": ("teacher", "p_control_t"),
}

STAGE_PLAN: tuple[Row, ...] = (
    Row("pretrain", stage_pretrain, (), "teacher", amortizable=True),
    Row("kd", stage_distill, ("teacher",), "student", amortizable=True),
    _tuning_row("tune_student", "student", "p_s", "prompt_student.pspa"),
    _tuning_row("tune_student_dp", "student", "p_s_dp", "prompt_student_dp.pspa", dp=True),
    Row("alpha", stage_alpha, ("teacher", "student", "p_s"), "alpha"),
    _transfer_row("transfer", "student", "p_s", "p_t", "prompt_transferred.pspa"),
    _transfer_row("transfer_dp", "student", "p_s_dp", "p_t_dp", "prompt_transferred_dp.pspa"),
    _tuning_row("full_pt", "teacher", "p_full", "prompt_full.pspa"),
    Row("control_lm", stage_control_student, ("teacher",), "control_student", amortizable=True),
    _tuning_row("control_tune", "control_student", "p_control", "prompt_control.pspa"),
    _transfer_row(
        "control_transfer", "control_student", "p_control", "p_control_t", "prompt_control_transferred.pspa"
    ),
    *(Row("eval", eval_baseline, inputs, kind) for kind, inputs in BASELINE_INPUTS.items()),
    Row("attacks", stage_attack, ("student",), "attacks"),
)


def _outputs_needed(wanted, have) -> set[str]:
    """The outputs to build for `wanted`: every output reached by walking
    back through STAGE_PLAN's inputs, stopping at those in `have`."""
    by_output = {row.output: row for row in STAGE_PLAN}
    needed: set[str] = set()
    stack = list(wanted)
    while stack:
        name = stack.pop()
        if name not in needed and name not in have:
            needed.add(name)
            stack.extend(by_output[name].inputs)
    return needed


def run_seed(config: ExperimentConfig, seed: int, ledger: DataAccessLedger, out_dir: str, plan: tuple) -> SeedRun:
    """Run the rows of `plan` (a prefix of STAGE_PLAN) that build what the
    config asks for: its baselines, and the attack when it is enabled."""
    run = SeedRun(config=config, seed=seed, ledger=ledger, out_dir=out_dir)
    if not isinstance(config.transfer_alpha, str):
        run.outputs["alpha"] = float(config.transfer_alpha)
    wanted = set(config.baselines) | ({"attacks"} if config.attack.enabled else set())
    needed = _outputs_needed(wanted, run.outputs)
    stage_data(run)
    for row in plan:
        if row.output in needed:
            args = [run.outputs[name] for name in row.inputs]
            run.outputs[row.output] = run.timed(row.name, lambda: row.fn(run, *args), row.amortizable)
    return run


# -- reports --------------------------------------------------------------------


@dataclass
class RunReport:
    baselines: dict
    timings: list[dict]
    artifacts: dict
    config_digest: str
    data_access: list[dict]
    resolved_alphas: dict
    seed_errors: dict
    attack_metrics: dict

    def to_dict(self) -> dict:
        return {
            "baselines": self.baselines,
            "timings": self.timings,
            "artifacts": self.artifacts,
            "config_digest": self.config_digest,
            "data_access": self.data_access,
            "resolved_alphas": self.resolved_alphas,
            "seed_errors": self.seed_errors,
            "attack_metrics": self.attack_metrics,
        }


def run_pipeline(config: ExperimentConfig, through: str | None = None) -> RunReport:
    """Run STAGE_PLAN, up to and including its last row named `through`
    (the whole plan for None), over all seeds and aggregate what was
    evaluated."""
    names = [row.name for row in STAGE_PLAN]
    if through is not None and through not in names:
        raise ConfigError(f"unknown stage {through!r}; the plan is {list(dict.fromkeys(names))}")
    end = len(names) if through is None else max(i for i, name in enumerate(names) if name == through) + 1
    plan = STAGE_PLAN[:end]
    ledger = DataAccessLedger()
    out_root = config.output_dir
    os.makedirs(out_root, exist_ok=True)
    with open(os.path.join(out_root, "config.json"), "w", encoding="utf-8") as fh:
        json.dump(config_to_dict(config), fh, indent=2, sort_keys=True)

    runs: dict[int, SeedRun] = {}
    errors: dict[int, str] = {}
    for seed in config.seeds:
        try:
            runs[seed] = run_seed(config, seed, ledger, os.path.join(out_root, f"seed{seed}"), plan)
        except StageError as e:
            errors[seed] = str(e)
            log.error("seed %d failed: %s", seed, e)
    if not runs:
        raise StageError("pipeline", f"every seed failed: {errors}")

    def per_seed(value: Callable[[dict], object]) -> dict:
        found = {str(s): value(runs[s].outputs) for s in sorted(runs)}
        return {s: v for s, v in found.items() if v is not None}

    baselines: dict[str, dict] = {}
    for kind in config.baselines:
        accs = per_seed(lambda out: out.get(kind))
        if accs:
            values = list(accs.values())
            baselines[kind] = {"mean": float(np.mean(values)), "std": float(np.std(values)), "per_seed": accs}
    attack_metrics: dict[str, dict] = {}
    for tag in ("nondp", "dp"):
        aucs = per_seed(lambda out: out.get("attacks", {}).get(tag, {}).get("auc"))
        if aucs:
            attack_metrics[tag] = {"auc_mean": float(np.mean(list(aucs.values()))), "auc_per_seed": aucs}

    timings = [row for seed in sorted(runs) for row in runs[seed].timings]
    artifacts = {f"seed{seed}": runs[seed].artifact_paths for seed in sorted(runs)}
    report = RunReport(
        baselines=baselines,
        timings=timings,
        artifacts=artifacts,
        config_digest=config.digest(),
        data_access=ledger.to_list(),
        resolved_alphas={str(s): runs[s].outputs.get("alpha") for s in sorted(runs)},
        seed_errors={str(s): msg for s, msg in errors.items()},
        attack_metrics=attack_metrics,
    )
    write_report(report, out_root)
    return report


def write_report(report: RunReport, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
    with open(os.path.join(out_dir, "metrics.csv"), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["baseline", "seed", "accuracy"])
        for kind, row in report.baselines.items():
            for seed, acc in row["per_seed"].items():
                writer.writerow([kind, seed, f"{acc:.10g}"])
    write_timing_csv(report, os.path.join(out_dir, "timing.csv"))
    with open(os.path.join(out_dir, "data_access.json"), "w", encoding="utf-8") as fh:
        json.dump(report.data_access, fh, indent=2, sort_keys=True)


def write_timing_csv(report: RunReport, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["stage", "seconds", "seed", "amortizable"])
        for row in report.timings:
            writer.writerow(
                [row["stage"], f"{row['seconds']:.6f}", row["seed"], int(row["amortizable"])]
            )
