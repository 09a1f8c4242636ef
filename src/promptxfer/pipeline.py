"""Config-driven orchestration of the distill/tune/transfer workflow.

One plan, `STAGE_PLAN`, runs every seed.  It is a tuple of `Row`s; each row
names its stage, a function `fn(run, *inputs) -> output`, the names of the
values it reads and the name of the value it builds.  The rows are, in
order: pretrain, distillation, the student prompt tunings (plain and DP),
the transfers, the control baselines, one `eval` row per baseline (its
inputs are the private test split and the baseline's (model, prompt) pair,
`BASELINE_INPUTS`, and its output is named after the baseline) and the
membership attack.

A run asks for some outputs, and one rule picks the rows: a seed's run
loads its data (`stage_data`), then walks back from those outputs through
the rows' declared inputs and runs, in plan order, exactly the rows that
build something on that walk.  Each runs in its own timed call; no stage
runs inside another.  `run_pipeline(config, wanted)` names the outputs;
by default they are the config's baselines, and "attacks" when the attack
is enabled.  Each CLI subcommand names its own (`cli.OUTPUTS`).

Each transfer row passes `transfer_alpha` to `transfer_prompt`: a float as
it is, "heuristic" as None, for which the transfer computes the heuristic
alpha from the public rows it reads.  The report's `resolved_alphas` gives,
per seed, the alpha of its one transfer, {row: alpha} when it ran several,
and None when it ran none.

Row functions look up every program function they call (`tune_prompt`,
`transfer_prompt`, `make_dp_params`, `lira_attack`, ...) through this
module's globals at call time, and the runner calls `SeedRun.timed` through
the class, so a wrapper installed on either after import takes effect.

The four data roles, `DATA_ROLES`, are plan values like any other:
`stage_data` puts the LM corpus (`kd_corpus`), the private train and test
splits and the public set (its first `public_subset` rows when that is
set) among the run's outputs, and a row that reads one names it among its
inputs and receives it as an argument.  Before a row runs, the runner
writes one data-access ledger row (seed, stage, role, dataset) for each
role among its inputs, so a row reads no data it does not declare and the
ledger is the plan's own account.  `tests/test_pipeline.py` checks from
the plan alone which rows each output's data reaches it through: the DP
prompt reads the private train split only in its DP-SGD tuning, nothing
that feeds a model, prompt or transfer reads the private test split, and
no model reads the private train split.

A config loads by one type rule: each JSON value is read against the
annotation of the field it sets.  A dataclass section takes an object;
`tuple[X, ...]` takes a list; `X | Y` takes the first type that fits;
`float` takes an int, a bool is never a number, and a number is finite (not
JSON's `NaN` or `Infinity`).  Any other value is a `ConfigError` naming its
dotted key, before any stage runs.
"""
from __future__ import annotations

import csv
import hashlib
import json
import logging
import math
import os
import time
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from types import UnionType
from typing import Callable, Collection, get_args, get_origin, get_type_hints

import numpy as np

from . import artifacts as art
from .attacks import AttackResult, lira_attack, write_attack_csv, write_attack_summary
from .corpus import (
    LabeledDataset,
    SynthTaskSpec,
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
    default_layer_indices,
    distill,
    init_student_from_teacher,
    lm_objective,
    train_lm,
)
from .model import ModelConfig, SoftPrompt, TransformerLM, classify_batch, init_model, init_prompt
from .transfer import TransferConfig, transfer_prompt
from .tuning import TuneConfig, make_dp_params, tune_prompt

log = logging.getLogger(__name__)


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

    def __post_init__(self):
        self.to_model_config(1)  # ModelConfig's own checks, before any stage runs

    def to_model_config(self, vocab_size: int) -> ModelConfig:
        return ModelConfig(vocab_size=vocab_size, **asdict(self))


@dataclass
class PretrainConfig:
    steps: int = 1200
    batch_size: int = 16
    learning_rate: float = 3e-3

    def __post_init__(self):
        if not (self.steps > 0 and self.batch_size > 0 and self.learning_rate > 0):  # NaN fails it
            raise ConfigError("pretrain.steps, batch_size and learning_rate must be positive")


@dataclass
class PromptSpec:
    length: int = 8

    def __post_init__(self):
        if self.length < 1:
            raise ConfigError("prompt.length must be positive")


@dataclass
class DpSpec:
    epsilon: float = 8.0
    delta: float | None = None
    clip_norm: float = 1.0

    def __post_init__(self):
        if not (self.epsilon > 0 and self.clip_norm > 0):  # NaN fails it
            raise ConfigError("dp.epsilon and dp.clip_norm must be positive")
        if self.delta is not None and not 0 < self.delta < 1:
            raise ConfigError("dp.delta must lie in (0, 1)")


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

    def __post_init__(self):
        if self.n_shadows < 2:
            raise ConfigError("attack.n_shadows must be at least 2")
        if not 0 <= self.label_noise < 1:
            raise ConfigError("attack.label_noise must lie in [0, 1)")
        if self.pool_size < 2:
            raise ConfigError("attack.pool_size must be at least 2")
        if self.prompt_length < 1 or self.batch_size < 1:
            raise ConfigError("attack.prompt_length and attack.batch_size must be positive")
        if not self.learning_rate > 0:  # NaN fails it
            raise ConfigError("attack.learning_rate must be positive")
        if self.epochs < 0:
            raise ConfigError("attack.epochs must be >= 0")


@dataclass
class CsvTask:
    train: str
    test: str
    public: str
    corpus: str
    template_suffix: str = ", it was"
    verbalizer_words: tuple[tuple[str, ...], ...] = ()


def check_baselines(names) -> None:
    """ConfigError unless every one of `names` is in ALL_BASELINES."""
    unknown = set(names) - set(ALL_BASELINES)
    if unknown:
        raise ConfigError(f"unknown baselines: {sorted(unknown)}")


@dataclass
class ExperimentConfig:
    teacher: ArchSpec = field(default_factory=ArchSpec)
    student_layers: int = 2
    pretrain: PretrainConfig = field(default_factory=PretrainConfig)
    kd: KdConfig = field(default_factory=KdConfig)
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
        check_baselines(self.baselines)
        if self.student_layers < 1 or self.student_layers > self.teacher.n_layers:
            raise ConfigError("student_layers must lie in [1, teacher.n_layers]")
        alpha = self.transfer_alpha
        if alpha != "heuristic" and (isinstance(alpha, str) or not 0 <= alpha <= 1):
            raise ConfigError(f"transfer_alpha must lie in [0, 1] or be 'heuristic', got {alpha!r}")
        if not self.seeds or len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"seeds must be one or more distinct integers, got {list(self.seeds)}")
        indices = self.kd_config().student_layer_indices
        if indices[-1] >= self.teacher.n_layers or len(indices) != self.student_layers:
            raise ConfigError("kd.student_layer_indices must name student_layers layers in [0, teacher.n_layers)")
        if self.public_subset is not None and self.public_subset < 1:
            raise ConfigError(f"public_subset must be positive, got {self.public_subset}")
        if isinstance(self.task, CsvTask):
            for attr in ("train", "test", "public", "corpus"):
                path = getattr(self.task, attr)
                if not os.path.exists(path):
                    raise ConfigError(f"task.{attr} path does not exist: {path}")
            if len(self.task.verbalizer_words) < 2:
                raise ConfigError("csv task needs at least two verbalizer_words sets, one per class")

    def kd_config(self) -> KdConfig:
        """The kd section, its student layers the first and last teacher
        layers where it names none."""
        if self.kd.student_layer_indices is not None:
            return self.kd
        return replace(self.kd, student_layer_indices=default_layer_indices(self.teacher.n_layers, self.student_layers))

    def digest(self) -> str:
        """A hash of the experiment: the config without `output_dir`, which
        says where a run goes, not what it computes."""
        blob = config_to_dict(self)
        del blob["output_dir"]
        return hashlib.sha256(json.dumps(blob, sort_keys=True).encode()).hexdigest()[:16]


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
    ("teacher", "tie_lm_head"): ((False,), "the LM head is its own weight"),
    ("attack", "with_dp"): ((True,), "the attack always runs its nondp and dp variants"),
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
    out = asdict(cfg)
    out["task"]["kind"] = "synthetic" if isinstance(cfg.task, SynthTaskSpec) else "csv"
    for section, key in FIXED_KEYS:
        (out if section is None else out.get(section, {})).pop(key, None)
    return out


def _read(value, hint, key: str, default=None):
    """`value`, the JSON value at dotted `key`, as the type `hint` declares,
    by the module docstring's rule; a dataclass section over `default`."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{key} must be a finite number, got {value}")
    args, origin = get_args(hint), get_origin(hint)
    if is_dataclass(hint) and isinstance(value, dict):
        hints, given, kwargs = get_type_hints(hint), dict(value), {}
        for f in fields(hint):
            name = f"{key}.{f.name}" if key else f.name
            if f.name in given:
                kwargs[f.name] = _read(given.pop(f.name), hints[f.name], name, getattr(default, f.name, None))
            elif default is not None:
                kwargs[f.name] = getattr(default, f.name)
        if given:
            raise ConfigError(f"unknown config keys: {sorted(f'{key}.{k}' if key else k for k in given)}")
        try:
            return hint(**kwargs)
        except (TypeError, ValueError) as e:  # a missing key, or a section's range check
            raise ConfigError(f"{key or 'config'}: {e}") from e
    if origin is UnionType:
        for option in args:
            try:
                return _read(value, option, key, default)
            except ConfigError:
                pass
    elif origin is tuple and isinstance(value, (list, tuple)):
        items = args[:1] * len(value) if args[-1] is Ellipsis else args
        if len(items) == len(value):
            return tuple(_read(v, t, f"{key}[{i}]") for i, (v, t) in enumerate(zip(value, items)))
    elif isinstance(value, origin or hint) and isinstance(value, bool) == (hint is bool):
        return value
    elif hint is float and type(value) is int:
        return float(value)
    name = hint.__name__ if origin is None else hint
    raise ConfigError(f"{key} must be {name}, got {json.dumps(value, default=str)}")


def _task_from_dict(task) -> SynthTaskSpec | CsvTask:
    """The task section, taken whole: `kind` picks its class."""
    task = dict(_read(task, dict, "task"))
    kind = task.pop("kind", "synthetic")
    if kind == "synthetic":
        return _read({**task, "seed": 0}, SynthTaskSpec, "task")
    if kind == "csv":
        return _read(task, CsvTask, "task")
    raise ConfigError(f"unknown task kind {kind!r}")


def config_from_dict(blob: dict) -> ExperimentConfig:
    """The ExperimentConfig that `blob`, a JSON object, describes, each value
    read by the module docstring's type rule.  A section sets only the keys
    it names; the rest keep the default experiment's values, not their class
    defaults.  The `task` section is the exception: it is taken whole."""
    blob = _drop_fixed_keys(_read(blob, dict, "config"))
    if "task" in blob:
        blob["task"] = _task_from_dict(blob["task"])
    return _read(blob, ExperimentConfig, "", ExperimentConfig())


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            blob = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e.strerror or e}")
    except ValueError as e:  # not UTF-8 text, or not JSON
        raise ConfigError(f"config {path} is not UTF-8 JSON: {e}")
    return config_from_dict(blob)


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
class SeedRun:
    config: ExperimentConfig
    seed: int
    out_dir: str
    vocab_size: int = 0  # set by stage_data
    outputs: dict = field(default_factory=dict)  # data role or STAGE_PLAN output name -> value
    alphas: dict = field(default_factory=dict)  # transfer row name -> the alpha it used
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


def write_loss_history(path: str, history: list[dict]) -> None:
    """`history` as a CSV with one column per key of its first row; no file
    when it is empty."""
    if not history:
        return
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(history[0].keys()))
        writer.writeheader()
        writer.writerows(history)


def stage_data(run: SeedRun, with_attack: bool = False) -> None:
    """Load the task and put each of `DATA_ROLES` among `run.outputs`;
    ConfigError if the teacher cannot read the longest input behind the
    prompt, or behind the attack's prompt when `with_attack`."""
    cfg = run.config

    def build() -> tuple:
        if isinstance(cfg.task, SynthTaskSpec):
            spec = replace(cfg.task, seed=seed_stream(run.seed, "task"))
            private, public, corpus = gen_synth_pair(spec)
            vocab = private.vocab
            write_manifest(run.path("task_manifest.json"), spec, vocab)
            private_train, private_test = private.split("train"), private.split("test")
        else:
            with open(cfg.task.corpus, "r", encoding="utf-8") as fh:
                corpus = [line.strip() for line in fh if line.strip()]
            if not corpus:
                raise ValueError(f"{cfg.task.corpus}: no sentences")
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
        return vocab.size, tokenize_corpus(corpus, vocab), private_train, private_test, public

    run.vocab_size, corpus_ids, private_train, private_test, public = run.timed("data", build)
    max_len = max(len(s) for s in corpus_ids)
    for ds in (private_train, private_test, public):
        max_len = max(max_len, max(len(s) for s in ds.sequences))
    prompts = {"prompt.length": cfg.prompt.length}
    if with_attack:
        prompts["attack.prompt_length"] = cfg.attack.prompt_length
    for key, length in prompts.items():
        if length + max_len > cfg.teacher.max_seq_len:
            raise ConfigError(
                f"max_seq_len {cfg.teacher.max_seq_len} is too small for {key} "
                f"{length} plus the longest templated input ({max_len})"
            )
    n = cfg.public_subset
    if n is not None and n < len(public):
        public = public.subset(range(n), name=f"{public.name}[:{n}]")
    run.outputs.update(kd_corpus=corpus_ids, private_train=private_train, private_test=private_test, public=public)


def stage_pretrain(run: SeedRun, corpus_ids: list[np.ndarray]) -> TransformerLM:
    cfg = run.config
    teacher = init_model(cfg.teacher.to_model_config(run.vocab_size), seed_stream(run.seed, "teacher_init"))
    pt = cfg.pretrain
    history = train_lm(
        teacher, corpus_ids, pt.steps, pt.batch_size, pt.learning_rate, seed_stream(run.seed, "pretrain"),
        lm_objective(teacher),
    )
    write_loss_history(run.path("pretrain_loss.csv"), history)
    teacher.provenance = {"stage": "pretrain", "seed": run.seed}
    art.save_model(run.path("teacher.pstl"), teacher)
    return teacher


def stage_distill(run: SeedRun, teacher: TransformerLM, corpus_ids: list[np.ndarray]) -> TransformerLM:
    student, history = distill(teacher, corpus_ids, run.config.kd_config(), seed_stream(run.seed, "kd"))
    write_loss_history(run.path("kd_loss.csv"), history)
    art.save_model(run.path("student.pstl"), student)
    return student


def stage_control_student(run: SeedRun, teacher: TransformerLM, corpus_ids: list[np.ndarray]) -> TransformerLM:
    """Same init as the distilled student, but plain LM training instead."""
    kd_cfg = run.config.kd_config()
    control = init_student_from_teacher(teacher, kd_cfg)
    history = train_lm(
        control, corpus_ids, kd_cfg.max_steps, kd_cfg.batch_size,
        run.config.pretrain.learning_rate, seed_stream(run.seed, "control_lm"), lm_objective(control),
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


def eval_baseline(
    run: SeedRun, test: LabeledDataset, model: TransformerLM, prompt: SoftPrompt | None = None
) -> float:
    """Accuracy of `model` on `test`, prompted by `prompt` unless it is None."""
    preds = classify_batch(model, test.sequences, test.verbalizers, prompt=prompt)
    return float(np.mean(preds == test.labels))


def stage_attack(run: SeedRun, student: TransformerLM, train: LabeledDataset) -> dict:
    """LiRA on the student's prompt-tuning set, non-DP and (optionally) DP."""
    cfg = run.config
    atk = cfg.attack
    pool_size = min(atk.pool_size, len(train))
    pool = train.subset(range(pool_size), name="candidate_pool")
    pool = with_label_noise(pool, atk.label_noise, seed_stream(run.seed, "attack_noise"))
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

    for tag, use_dp in (("nondp", False), ("dp", True)):
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

# the values `stage_data` puts among a run's outputs
DATA_ROLES = ("kd_corpus", "private_train", "private_test", "public")


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

    def tune(run: SeedRun, lm: TransformerLM, train: LabeledDataset) -> SoftPrompt:
        prompt = init_prompt(lm, run.config.prompt.length, seed_stream(run.seed, "prompt_init"))
        tune_cfg = _under_dp(run.config.tune, len(train), run.config.dp) if dp else run.config.tune
        seed = seed_stream(run.seed, name)
        tuned, history = tune_prompt(lm, prompt, train, tune_cfg, seed)
        write_loss_history(run.path(artifact.replace(".pspa", "_history.csv")), history)
        art.save_prompt(run.path(artifact), tuned, tuning_config_digest=tune_cfg.digest(seed))
        return tuned

    return Row(name, tune, (model, "private_train"), output)


def _transfer_row(name: str, source: str, prompt: str, output: str, artifact: str) -> Row:
    """A row that transfers `prompt`, tuned on the `source` model, to the
    teacher on the public set, and writes it to `artifact`."""

    def transfer(run: SeedRun, teacher: TransformerLM, lm: TransformerLM, p_s: SoftPrompt, public: LabeledDataset):
        seed = seed_stream(run.seed, name)
        alpha = None if isinstance(run.config.transfer_alpha, str) else float(run.config.transfer_alpha)
        p_t, history, run.alphas[name] = transfer_prompt(teacher, lm, p_s, public, run.config.transfer, alpha, seed)
        write_loss_history(run.path(artifact.replace(".pspa", "_loss.csv")), history)
        art.save_prompt(run.path(artifact), p_t)
        return p_t

    return Row(name, transfer, ("teacher", source, prompt, "public"), output)


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
ALL_BASELINES = tuple(BASELINE_INPUTS)

STAGE_PLAN: tuple[Row, ...] = (
    Row("pretrain", stage_pretrain, ("kd_corpus",), "teacher", amortizable=True),
    Row("kd", stage_distill, ("teacher", "kd_corpus"), "student", amortizable=True),
    _tuning_row("tune_student", "student", "p_s", "prompt_student.pspa"),
    _tuning_row("tune_student_dp", "student", "p_s_dp", "prompt_student_dp.pspa", dp=True),
    _transfer_row("transfer", "student", "p_s", "p_t", "prompt_transferred.pspa"),
    _transfer_row("transfer_dp", "student", "p_s_dp", "p_t_dp", "prompt_transferred_dp.pspa"),
    _tuning_row("full_pt", "teacher", "p_full", "prompt_full.pspa"),
    Row("control_lm", stage_control_student, ("teacher", "kd_corpus"), "control_student", amortizable=True),
    _tuning_row("control_tune", "control_student", "p_control", "prompt_control.pspa"),
    _transfer_row(
        "control_transfer", "control_student", "p_control", "p_control_t", "prompt_control_transferred.pspa"
    ),
    *(Row("eval", eval_baseline, ("private_test", *inputs), kind) for kind, inputs in BASELINE_INPUTS.items()),
    Row("attacks", stage_attack, ("student", "private_train"), "attacks"),
)


def _outputs_needed(wanted) -> set[str]:
    """The outputs to build for `wanted`: every output reached by walking
    back through STAGE_PLAN's inputs.  A data role is a leaf."""
    by_output = {row.output: row for row in STAGE_PLAN}
    needed: set[str] = set()
    stack = list(wanted)
    while stack:
        name = stack.pop()
        if name not in needed and name not in DATA_ROLES:
            needed.add(name)
            stack.extend(by_output[name].inputs)
    return needed


def run_seed(
    config: ExperimentConfig, seed: int, ledger: DataAccessLedger, out_dir: str, wanted: Collection[str]
) -> SeedRun:
    """Run, in plan order, the rows of STAGE_PLAN that build the outputs
    named in `wanted`, and those their inputs reach.  Each row's data-role
    inputs go to `ledger` before the row runs.  The run keeps only the
    outputs `wanted` names, so the rest go before the next seed runs."""
    run = SeedRun(config=config, seed=seed, out_dir=out_dir)
    needed = _outputs_needed(wanted)
    stage_data(run, with_attack="attacks" in needed)
    for row in STAGE_PLAN:
        if row.output in needed:
            for name in row.inputs:
                if name in DATA_ROLES:  # a dataset by its name; the LM corpus (token-id arrays) as "corpus"
                    ledger.log(seed, row.name, name, getattr(run.outputs[name], "name", "corpus"))
            args = [run.outputs[name] for name in row.inputs]
            run.outputs[row.output] = run.timed(row.name, lambda: row.fn(run, *args), row.amortizable)
    run.outputs = {name: run.outputs[name] for name in wanted}
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
        return asdict(self)


def run_pipeline(config: ExperimentConfig, wanted: Collection[str] | None = None) -> RunReport:
    """Build, over all seeds, the STAGE_PLAN outputs named in `wanted` (by
    default the config's baselines, and "attacks" when the attack is
    enabled); then aggregate the baselines and attacks among them."""
    if wanted is None:
        wanted = (*config.baselines, *(("attacks",) if config.attack.enabled else ()))
    plan = [row.output for row in STAGE_PLAN]
    unknown = sorted(set(wanted) - set(plan))
    if unknown:
        raise ConfigError(f"unknown outputs {unknown}; the plan builds {plan}")
    ledger = DataAccessLedger()
    out_root = config.output_dir
    os.makedirs(out_root, exist_ok=True)
    with open(os.path.join(out_root, "config.json"), "w", encoding="utf-8") as fh:
        json.dump(config_to_dict(config), fh, indent=2, sort_keys=True)

    runs: dict[int, SeedRun] = {}
    errors: dict[int, str] = {}
    for seed in config.seeds:
        try:
            run = run_seed(config, seed, ledger, os.path.join(out_root, f"seed{seed}"), wanted)
        except StageError as e:
            errors[seed] = str(e)
            log.error("seed %d failed: %s", seed, e)
            continue
        runs[seed] = run
    if not runs:
        raise StageError("pipeline", f"every seed failed: {errors}")

    baselines: dict[str, dict] = {}
    for kind in (name for name in wanted if name in BASELINE_INPUTS):
        accs = {str(s): runs[s].outputs[kind] for s in sorted(runs)}
        values = list(accs.values())
        baselines[kind] = {"mean": float(np.mean(values)), "std": float(np.std(values)), "per_seed": accs}
    attack_metrics: dict[str, dict] = {}
    if "attacks" in wanted:
        for tag in ("nondp", "dp"):
            aucs = {str(s): runs[s].outputs["attacks"][tag]["auc"] for s in sorted(runs)}
            attack_metrics[tag] = {"auc_mean": float(np.mean(list(aucs.values()))), "auc_per_seed": aucs}

    timings = [row for seed in sorted(runs) for row in runs[seed].timings]
    artifacts = {f"seed{seed}": runs[seed].artifact_paths for seed in sorted(runs)}
    report = RunReport(
        baselines=baselines,
        timings=timings,
        artifacts=artifacts,
        config_digest=config.digest(),
        data_access=ledger.to_list(),
        resolved_alphas={str(s): _resolved_alpha(runs[s].alphas) for s in sorted(runs)},
        seed_errors={str(s): msg for s, msg in errors.items()},
        attack_metrics=attack_metrics,
    )
    write_report(report, out_root)
    return report


def _resolved_alpha(alphas: dict):
    """A seed's `resolved_alphas` entry (module docstring)."""
    return dict(alphas) if len(alphas) > 1 else next(iter(alphas.values()), None)


def write_report(report: RunReport, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
