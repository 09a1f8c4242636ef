"""Config-driven orchestration of the distill/tune/transfer workflow.

One ordered plan, `STAGE_PLAN`, runs every seed: pretrain, distill, tune,
transfer, the control baselines, eval and the membership attack.  Each entry
runs when a requested baseline (or the enabled attack) needs it, and
`run_pipeline(config, through=name)` stops after the named entry, so every
CLI subcommand runs a prefix of the same plan.  Every dataset hand-off is
recorded in a data-access ledger keyed by (seed, stage, role);
`tests/test_pipeline.py` asserts that the teacher-side stages never receive
the private train split.
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
from .transfer import HeuristicInputs, TransferConfig, alpha_heuristic, direct_transfer, transfer_prompt
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
    # set per stage from other keys
    ("task", "seed"): ((0,), "the task seed is derived from `seeds`"),
    ("tune", "seed"): ((0,), "the tuning seed is derived from `seeds`"),
    ("transfer", "seed"): ((0,), "the transfer seed is derived from `seeds`"),
    ("tune", "dp"): ((None,), "DP-SGD is set by `dp`"),
    ("transfer", "alpha"): ((0.5,), "the transfer's alpha is set by `transfer_alpha`"),
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
    teacher: TransformerLM | None = None
    student: TransformerLM | None = None
    control_student: TransformerLM | None = None
    p_s: SoftPrompt | None = None
    p_s_dp: SoftPrompt | None = None
    p_t: SoftPrompt | None = None
    p_t_dp: SoftPrompt | None = None
    p_full: SoftPrompt | None = None
    p_control: SoftPrompt | None = None
    p_control_t: SoftPrompt | None = None
    resolved_alpha: float | None = None
    timings: list[dict] = field(default_factory=list)
    accuracies: dict = field(default_factory=dict)
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


def stage_pretrain(run: SeedRun) -> None:
    cfg = run.config
    run.ledger.log(run.seed, "pretrain", "kd_corpus", "corpus")

    def build() -> TransformerLM:
        model_cfg = cfg.teacher.to_model_config(run.data.vocab.size)
        teacher = init_model(model_cfg, seed_stream(run.seed, "teacher_init"))
        pt = cfg.pretrain
        history = train_lm(
            teacher, run.data.corpus_ids, pt.steps, pt.batch_size, pt.learning_rate,
            seed_stream(run.seed, "pretrain"),
        )
        write_loss_history(run.path("pretrain_loss.csv"), history)
        teacher.provenance = {"stage": "pretrain", "seed": run.seed}
        art.save_model(run.path("teacher.pstl"), teacher)
        return teacher

    run.teacher = run.timed("pretrain", build, amortizable=True)


def stage_distill(run: SeedRun) -> None:
    run.ledger.log(run.seed, "kd", "kd_corpus", "corpus")

    def build() -> TransformerLM:
        student, history = distill(
            run.teacher, run.data.corpus_ids, run.config.kd_config(), seed_stream(run.seed, "kd")
        )
        write_loss_history(run.path("kd_loss.csv"), history)
        art.save_model(run.path("student.pstl"), student)
        return student

    run.student = run.timed("kd", build, amortizable=True)


def stage_control_student(run: SeedRun) -> None:
    """Same init as the distilled student, but plain LM training instead."""
    run.ledger.log(run.seed, "control_lm", "kd_corpus", "corpus")

    def build() -> TransformerLM:
        kd_cfg = run.config.kd_config()
        control = init_student_from_teacher(run.teacher, kd_cfg)
        history = train_lm(
            control, run.data.corpus_ids, kd_cfg.max_steps, kd_cfg.batch_size,
            run.config.pretrain.learning_rate, seed_stream(run.seed, "control_lm"),
        )
        control.provenance["trained_by"] = "plain_lm"
        write_loss_history(run.path("control_lm_loss.csv"), history)
        art.save_model(run.path("control_student.pstl"), control)
        return control

    run.control_student = run.timed("control_lm", build, amortizable=True)


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


def _tune_on(run: SeedRun, model: TransformerLM, stage: str, dp: bool, artifact: str) -> SoftPrompt:
    run.ledger.log(run.seed, stage, "private_train", run.data.private_train.name)
    cfg = run.config

    def build() -> SoftPrompt:
        prompt = init_prompt(model, cfg.prompt.length, seed_stream(run.seed, "prompt_init"))
        tune_cfg = replace(cfg.tune, seed=seed_stream(run.seed, stage))
        if dp:
            tune_cfg = _under_dp(tune_cfg, len(run.data.private_train), cfg.dp)
        tuned, history = tune_prompt(model, prompt, run.data.private_train, tune_cfg)
        write_loss_history(run.path(artifact.replace(".pspa", "_history.csv")), history)
        art.save_prompt(run.path(artifact), tuned, tuning_config_digest=tune_cfg.digest())
        return tuned

    return run.timed(stage, build)


def stage_tune_student(run: SeedRun) -> None:
    run.p_s = _tune_on(run, run.student, "tune_student", dp=False, artifact="prompt_student.pspa")


def stage_tune_student_dp(run: SeedRun) -> None:
    run.p_s_dp = _tune_on(run, run.student, "tune_student_dp", dp=True, artifact="prompt_student_dp.pspa")


def stage_full_pt(run: SeedRun) -> None:
    # upper-bound control; explicitly confidentiality-violating (private data
    # reaches the teacher side)
    run.p_full = _tune_on(run, run.teacher, "full_pt", dp=False, artifact="prompt_full.pspa")


def stage_control_tune(run: SeedRun) -> None:
    run.p_control = _tune_on(run, run.control_student, "control_tune", dp=False, artifact="prompt_control.pspa")


def _accuracy(model: TransformerLM, dataset: LabeledDataset, prompt=None) -> float:
    preds = classify_batch(model, dataset.sequences, dataset.verbalizers, prompt=prompt)
    return float(np.mean(preds == dataset.labels))


def resolve_alpha(run: SeedRun) -> float:
    """Heuristic alpha from measured teacher zero-shot and prompted-student
    accuracy (both on the private test split, an eval-side measurement)."""
    cfg = run.config
    if not isinstance(cfg.transfer_alpha, str):
        return float(cfg.transfer_alpha)
    if run.resolved_alpha is not None:
        return run.resolved_alpha
    if run.p_s is None:  # heuristic needs the prompted-student accuracy
        stage_tune_student(run)
    run.ledger.log(run.seed, "eval", "private_test", run.data.private_test.name)
    zs = _accuracy(run.teacher, run.data.private_test)
    compressed = _accuracy(run.student, run.data.private_test, prompt=run.p_s)
    rg = 1.0 / run.data.private_test.n_classes
    try:
        alpha = alpha_heuristic(
            HeuristicInputs(zero_shot=100 * zs, compressed=100 * compressed, random_guess=100 * rg)
        )
    except ValueError:
        log.warning("alpha heuristic undefined (compressed == random guess); falling back to 0.5")
        alpha = 0.5
    run.resolved_alpha = alpha
    log.info("seed %d: resolved alpha = %.3f (ZS %.3f, compressed %.3f)", run.seed, alpha, zs, compressed)
    return alpha


def _public_view(run: SeedRun) -> LabeledDataset:
    public = run.data.public
    if run.config.public_subset is not None and run.config.public_subset < len(public):
        public = public.subset(range(run.config.public_subset), name=f"{public.name}[:{run.config.public_subset}]")
    return public


def _transfer_from(run: SeedRun, p_s: SoftPrompt, stage: str, artifact: str) -> SoftPrompt:
    public = _public_view(run)
    run.ledger.log(run.seed, stage, "public", public.name)
    cfg = run.config

    def build() -> SoftPrompt:
        tr_cfg = replace(
            cfg.transfer, alpha=resolve_alpha(run), seed=seed_stream(run.seed, stage)
        )
        source_model = run.control_student if stage == "control_transfer" else run.student
        p_t, history = transfer_prompt(run.teacher, source_model, p_s, public, tr_cfg)
        write_loss_history(run.path(artifact.replace(".pspa", "_loss.csv")), history)
        art.save_prompt(run.path(artifact), p_t)
        return p_t

    return run.timed(stage, build)


def stage_transfer(run: SeedRun) -> None:
    run.p_t = _transfer_from(run, run.p_s, "transfer", "prompt_transferred.pspa")


def stage_transfer_dp(run: SeedRun) -> None:
    run.p_t_dp = _transfer_from(run, run.p_s_dp, "transfer_dp", "prompt_transferred_dp.pspa")


def stage_control_transfer(run: SeedRun) -> None:
    run.p_control_t = _transfer_from(run, run.p_control, "control_transfer", "prompt_control_transferred.pspa")


def eval_baseline(run: SeedRun, kind: str) -> float:
    """Test accuracy of one baseline from the artifacts built so far."""
    test = run.data.private_test
    run.ledger.log(run.seed, "eval", "private_test", test.name)
    # baseline -> (model, prompt); full_zs is the one without a prompt
    sources: dict[str, tuple] = {
        "full_zs": (run.teacher, None),
        "full_pt": (run.teacher, run.p_full),
        "compressed_pt": (run.student, run.p_s),
        "direct_transfer": (run.teacher, direct_transfer(run.p_s, run.teacher) if run.p_s else None),
        "post": (run.teacher, run.p_t),
        "post_dp": (run.teacher, run.p_t_dp),
        "finetuned_control": (run.teacher, run.p_control_t),
    }
    if kind not in sources:
        raise StageError("eval", f"unknown baseline {kind!r}")
    model, prompt = sources[kind]
    if model is None or (prompt is None and kind != "full_zs"):
        raise StageError("eval", f"baseline {kind!r} is missing a required artifact")
    return _accuracy(model, test, prompt=prompt)


def stage_eval(run: SeedRun) -> None:
    """Test accuracy of every requested baseline, one timed row each."""
    for kind in run.config.baselines:
        run.accuracies[kind] = run.timed("eval", lambda k=kind: eval_baseline(run, k))


def stage_attack(run: SeedRun) -> dict:
    """LiRA on the student's prompt-tuning set, non-DP and (optionally) DP."""
    cfg = run.config
    atk = cfg.attack
    pool_size = min(atk.pool_size, len(run.data.private_train))
    pool = run.data.private_train.subset(range(pool_size), name="candidate_pool")
    pool = with_label_noise(pool, atk.label_noise, seed_stream(run.seed, "attack_noise"))
    run.ledger.log(run.seed, "attacks", "private_train", pool.name)

    def build() -> dict:
        model = run.student
        rng = np.random.default_rng(seed_stream(run.seed, "attack_members"))
        members = np.sort(rng.choice(len(pool), size=len(pool) // 2, replace=False))
        results: dict[str, AttackResult] = {}

        def train_fn_factory(use_dp: bool):
            def train_fn(dataset: LabeledDataset, seed: int) -> SoftPrompt:
                prompt = init_prompt(model, atk.prompt_length, seed)
                # the attack reads only the tuned prompt, so no history is recorded
                tune_cfg = TuneConfig(
                    epochs=atk.epochs,
                    learning_rate=atk.learning_rate,
                    batch_size=atk.batch_size,
                    seed=seed,
                    eval_every=0,
                )
                if use_dp:
                    tune_cfg = _under_dp(tune_cfg, len(dataset), cfg.dp)
                tuned, _ = tune_prompt(model, prompt, dataset, tune_cfg)
                return tuned

            return train_fn

        variants = [("nondp", False)] + ([("dp", True)] if atk.with_dp else [])
        for tag, use_dp in variants:
            train_fn = train_fn_factory(use_dp)
            target = train_fn(pool.subset(members), seed_stream(run.seed, f"attack_target_{tag}"))
            res = lira_attack(
                model,
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
        out = {tag: {"auc": r.auc, "tpr_at_1pct_fpr": r.tpr_at_1pct_fpr} for tag, r in results.items()}
        run.accuracies.update({f"attack_{tag}_auc": v["auc"] for tag, v in out.items()})
        return out

    return run.timed("attacks", build)


# Each entry runs when the config requests something it serves: a baseline,
# or "attacks" when config.attack is enabled.
STAGE_PLAN: tuple[tuple[str, Callable[[SeedRun], object], frozenset], ...] = (
    ("pretrain", stage_pretrain, frozenset(ALL_BASELINES) | {"attacks"}),
    ("kd", stage_distill, frozenset(ALL_BASELINES) - {"full_zs", "full_pt"} | {"attacks"}),
    ("tune_student", stage_tune_student, frozenset({"compressed_pt", "direct_transfer", "post"})),
    ("tune_student_dp", stage_tune_student_dp, frozenset({"post_dp"})),
    ("transfer", stage_transfer, frozenset({"post"})),
    ("transfer_dp", stage_transfer_dp, frozenset({"post_dp"})),
    ("full_pt", stage_full_pt, frozenset({"full_pt"})),
    ("control_lm", stage_control_student, frozenset({"finetuned_control"})),
    ("control_tune", stage_control_tune, frozenset({"finetuned_control"})),
    ("control_transfer", stage_control_transfer, frozenset({"finetuned_control"})),
    ("eval", stage_eval, frozenset(ALL_BASELINES)),
    ("attacks", stage_attack, frozenset({"attacks"})),
)


def run_seed(config: ExperimentConfig, seed: int, ledger: DataAccessLedger, out_dir: str, plan: tuple) -> SeedRun:
    """Run the entries of `plan` (a prefix of STAGE_PLAN) that the config requests."""
    run = SeedRun(config=config, seed=seed, ledger=ledger, out_dir=out_dir)
    requested = set(config.baselines) | ({"attacks"} if config.attack.enabled else set())
    stage_data(run)
    for _, fn, serves in plan:
        if requested & serves:
            fn(run)
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
    """Run STAGE_PLAN, up to and including the entry named `through` (the
    whole plan for None), over all seeds and aggregate what was evaluated."""
    names = [name for name, _, _ in STAGE_PLAN]
    if through is not None and through not in names:
        raise ConfigError(f"unknown stage {through!r}; the plan is {names}")
    plan = STAGE_PLAN if through is None else STAGE_PLAN[: names.index(through) + 1]
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

    def per_seed(key: str) -> dict:
        return {str(s): runs[s].accuracies[key] for s in sorted(runs) if key in runs[s].accuracies}

    baselines: dict[str, dict] = {}
    for kind in config.baselines:
        accs = per_seed(kind)
        if accs:
            values = list(accs.values())
            baselines[kind] = {"mean": float(np.mean(values)), "std": float(np.std(values)), "per_seed": accs}
    attack_metrics: dict[str, dict] = {}
    for tag in ("nondp", "dp"):
        aucs = per_seed(f"attack_{tag}_auc")
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
        resolved_alphas={str(s): runs[s].resolved_alpha for s in sorted(runs)},
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
