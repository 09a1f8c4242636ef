"""The stage plan, its CLI subcommands, config loading and the CSV task,
on a tiny config (2-layer d=16 teacher, 32-example task) that runs the
whole plan in about a second.

Where private data can reach each output is checked twice: from the plan
alone, by walking `STAGE_PLAN` back from the output through the rows'
declared inputs, data roles among them, and from the data-access ledger a
run writes from those same declarations."""

import json
import math
import weakref
from collections import defaultdict
from dataclasses import asdict, fields, is_dataclass, replace
from pathlib import Path

import pytest

from promptxfer import artifacts as art
from promptxfer import pipeline as pl
from promptxfer.cli import EXIT_CONFIG, EXIT_OK, EXIT_STAGE, main
from promptxfer.corpus import SynthTaskSpec, default_task_spec, gen_synth_pair
from promptxfer.distill import KdConfig, KdWeights
from promptxfer.transfer import TransferConfig
from promptxfer.tuning import TuneConfig
from task_csv import write_csv

BASELINES = list(pl.ALL_BASELINES)
PRETRAIN_STEPS, KD_STEPS = 20, 10
TASK = default_task_spec(length_range=(4, 8), n_private_train=32, n_private_test=32, n_public=32, n_corpus_sentences=64)


def tiny_config(out_dir, **overrides) -> dict:
    blob = {
        "teacher": {"n_layers": 2, "d_model": 16, "n_heads": 2, "max_seq_len": 32},
        "student_layers": 1,
        "pretrain": {"steps": PRETRAIN_STEPS},
        "kd": {"max_steps": KD_STEPS},
        "prompt": {"length": 2},
        "tune": {"epochs": 2, "learning_rate": 1e-2, "batch_size": 8},
        "transfer": {"steps": 3, "batch_size": 8},
        "task": {"kind": "synthetic", **asdict(TASK)},
        "baselines": BASELINES,
        "attack": {"enabled": True, "n_shadows": 2, "pool_size": 16, "epochs": 1, "batch_size": 8, "prompt_length": 2},
        "seeds": [0],
        "output_dir": str(out_dir),
    }
    blob.update(overrides)
    return blob


def write_config(path: Path, blob) -> str:
    path.write_text(json.dumps(blob))
    return str(path)


def seed_files(out_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted((out_dir / "seed0").iterdir())}


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipeline")
    config = write_config(out / "config_in.json", tiny_config(out / "run"))
    assert main(["pipeline", "--config", config]) == EXIT_OK
    return out / "run"


def test_pipeline_runs_the_whole_plan(full_run):
    report = json.loads((full_run / "report.json").read_text())
    assert set(report["baselines"]) == set(BASELINES)
    assert set(report["attack_metrics"]) == {"nondp", "dp"}
    stages = [row["stage"] for row in report["timings"]]
    assert stages == [
        "data", "pretrain", "kd", "tune_student", "tune_student_dp", "transfer", "transfer_dp",
        "full_pt", "control_lm", "control_tune", "control_transfer",
        *["eval"] * len(BASELINES), "attacks",
    ]


def test_a_run_writes_its_summary_once(full_run):
    """The run root holds the config, the report and one directory per
    seed; the task manifest holds what regenerates the task."""
    assert sorted(p.name for p in full_run.iterdir()) == ["config.json", "report.json", "seed0"]
    manifest = json.loads((full_run / "seed0" / "task_manifest.json").read_text())
    assert set(manifest) == {"spec", "vocab_size"}
    assert SynthTaskSpec.from_dict(manifest["spec"]).n_public == TASK.n_public


@pytest.mark.parametrize(
    "name, rows", [("pretrain_loss.csv", PRETRAIN_STEPS), ("kd_loss.csv", KD_STEPS), ("control_lm_loss.csv", KD_STEPS)]
)
def test_lm_training_runs_every_configured_step(full_run, name, rows):
    lines = (full_run / "seed0" / name).read_text().splitlines()
    assert len(lines) == 1 + rows  # header + one row per step


# subcommand -> files it writes among others, and the stages it runs
SUBCOMMAND_RUNS = [
    ("distill", {"task_manifest.json", "pretrain_loss.csv", "teacher.pstl", "kd_loss.csv", "student.pstl"},
     ["data", "pretrain", "kd"]),
    ("tune", {"prompt_student.pspa", "prompt_student_history.csv",
              "prompt_student_dp.pspa", "prompt_student_dp_history.csv"},
     ["data", "pretrain", "kd", "tune_student", "tune_student_dp"]),
    ("transfer", {"prompt_transferred.pspa", "prompt_transferred_loss.csv",
                  "prompt_transferred_dp.pspa", "prompt_transferred_dp_loss.csv"},
     ["data", "pretrain", "kd", "tune_student", "tune_student_dp", "transfer", "transfer_dp"]),
    ("attack", {"attack_nondp.csv", "attack_nondp.json", "attack_dp.csv", "attack_dp.json"},
     ["data", "pretrain", "kd", "attacks"]),
]


@pytest.mark.parametrize("command, files, stages", SUBCOMMAND_RUNS)
def test_subcommand_runs_a_prefix_of_the_plan_and_writes_what_the_pipeline_writes(
    full_run, tmp_path, command, files, stages
):
    check_subcommand(full_run, tmp_path, tiny_config(tmp_path / "run"), command, files, stages)


# baselines that, with the attack off, reach only some of a prefix
# subcommand's rows
NARROW_BASELINES = {"distill": ["full_zs"], "tune": list(pl.ExperimentConfig().baselines), "transfer": ["post"]}


@pytest.mark.parametrize("command, files, stages", [run for run in SUBCOMMAND_RUNS if run[0] in NARROW_BASELINES])
def test_a_prefix_subcommand_builds_its_whole_prefix_whatever_the_baselines(
    full_run, tmp_path, command, files, stages
):
    blob = tiny_config(tmp_path / "run", baselines=NARROW_BASELINES[command])
    blob["attack"]["enabled"] = False
    check_subcommand(full_run, tmp_path, blob, command, files, stages)


def test_attack_runs_the_attack_alone_whatever_the_config_asks_for(full_run, tmp_path):
    """`attack` on a config that asks for every baseline and no attack
    builds the attack and what it reads, and records the config as loaded."""
    blob = tiny_config(tmp_path / "run")
    blob["attack"]["enabled"] = False
    (files, stages), = [(files, stages) for command, files, stages in SUBCOMMAND_RUNS if command == "attack"]
    check_subcommand(full_run, tmp_path, blob, "attack", files, stages)
    assert pl.load_config(tmp_path / "run" / "config.json") == pl.config_from_dict(blob)


def test_a_run_builds_the_outputs_it_names(full_run, tmp_path):
    """Asked for the student prompt alone, a run builds it and what it
    reads, and evaluates nothing, whatever the config asks for."""
    report = pl.run_pipeline(pl.config_from_dict(tiny_config(tmp_path / "run")), {"p_s"})
    assert [row["stage"] for row in report.timings] == ["data", "pretrain", "kd", "tune_student"]
    assert report.baselines == {} and report.attack_metrics == {}
    written, expected = seed_files(tmp_path / "run"), seed_files(full_run)
    assert "prompt_student.pspa" in written
    for name, data in written.items():
        assert data == expected[name], name


def check_subcommand(full_run, tmp_path, blob, command, files, stages):
    """`command` on `blob` runs `stages`, writes `files` among others, and
    writes each file as the whole plan does."""
    config = write_config(tmp_path / "config_in.json", blob)
    assert main([command, "--config", config]) == EXIT_OK
    written = seed_files(tmp_path / "run")
    expected = seed_files(full_run)
    assert files <= set(written)
    for name, data in written.items():
        assert data == expected[name], name
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert [row["stage"] for row in report["timings"]] == stages
    assert report["baselines"] == {}  # nothing was evaluated
    assert bool(report["attack_metrics"]) == (command == "attack")


@pytest.fixture(scope="module")
def full_run_fixed_alpha(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipeline_fixed_alpha")
    config = write_config(out / "config_in.json", tiny_config(out / "run", transfer_alpha=0.5))
    assert main(["pipeline", "--config", config]) == EXIT_OK
    return out / "run"


# what one requested baseline (or the attack alone) runs, between the data
# stage and its eval row, with the heuristic alpha and with a fixed one alike:
# each transfer takes its alpha from the public rows it reads
ROWS_FOR = {
    "full_zs": ["pretrain"],
    "full_pt": ["pretrain", "full_pt"],
    "compressed_pt": ["pretrain", "kd", "tune_student"],
    "direct_transfer": ["pretrain", "kd", "tune_student"],
    "post": ["pretrain", "kd", "tune_student", "transfer"],
    "post_dp": ["pretrain", "kd", "tune_student_dp", "transfer_dp"],
    # the control student starts from the teacher, so it needs no KD
    "finetuned_control": ["pretrain", "control_lm", "control_tune", "control_transfer"],
    "attacks": ["pretrain", "kd"],
}
TRANSFER_ROWS = ("transfer", "transfer_dp", "control_transfer")


@pytest.mark.parametrize("fixed_alpha", [False, True], ids=["heuristic", "fixed"])
@pytest.mark.parametrize("wanted", list(ROWS_FOR))
def test_a_run_builds_only_what_its_request_reads(
    full_run, full_run_fixed_alpha, tmp_path, monkeypatch, wanted, fixed_alpha
):
    """Each baseline alone (or the attack alone) runs exactly the rows its
    inputs reach, each in its own timed call, and writes what the whole
    plan writes."""
    blob = tiny_config(tmp_path / "run", baselines=[] if wanted == "attacks" else [wanted])
    blob["attack"]["enabled"] = wanted == "attacks"
    if fixed_alpha:
        blob["transfer_alpha"] = 0.5
    depth, deepest = [0], [0]
    timed = pl.SeedRun.timed

    def spy(run, stage, fn, *args, **kwargs):
        depth[0] += 1
        deepest[0] = max(deepest[0], depth[0])
        try:
            return timed(run, stage, fn, *args, **kwargs)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(pl.SeedRun, "timed", spy)
    report = pl.run_pipeline(pl.config_from_dict(blob)).to_dict()

    rows = ROWS_FOR[wanted]
    assert [row["stage"] for row in report["timings"]] == ["data", *rows, "attacks" if wanted == "attacks" else "eval"]
    assert deepest[0] == 1  # no stage runs inside another
    whole = full_run_fixed_alpha if fixed_alpha else full_run
    written, expected = seed_files(tmp_path / "run"), seed_files(whole)
    for name, data in written.items():
        assert data == expected[name], name
    whole_report = json.loads((whole / "report.json").read_text())
    assert report["baselines"] == {k: v for k, v in whole_report["baselines"].items() if k == wanted}
    # the alpha of the one transfer the request ran, as the whole plan used it
    transfers = [row for row in rows if row in TRANSFER_ROWS]
    alpha = whole_report["resolved_alphas"]["0"][transfers[0]] if transfers else None
    assert report["resolved_alphas"] == {"0": alpha}


def test_tuning_without_history_writes_no_history_and_the_same_prompts(full_run, tmp_path):
    blob = tiny_config(tmp_path / "run")
    blob["tune"]["eval_every"] = 0
    assert main(["tune", "--config", write_config(tmp_path / "config_in.json", blob)]) == EXIT_OK
    written = seed_files(tmp_path / "run")
    assert not [name for name in written if name.endswith("_history.csv")]
    for name in ("prompt_student.pspa", "prompt_student_dp.pspa"):
        assert written[name] == seed_files(full_run)[name], name


def test_eval_restricts_the_baselines(full_run, tmp_path):
    config = write_config(tmp_path / "config_in.json", tiny_config(tmp_path / "run"))
    assert main(["eval", "--config", config, "--baseline", "full_zs", "--baseline", "post"]) == EXIT_OK
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    full = json.loads((full_run / "report.json").read_text())
    assert report["baselines"] == {k: full["baselines"][k] for k in ("full_zs", "post")}
    # the baselines it names in place of the config's, and the enabled attack
    assert [row["stage"] for row in report["timings"]] == ["data", "pretrain", "kd", "tune_student", "transfer",
                                                           "eval", "eval", "attacks"]
    assert report["attack_metrics"] == full["attack_metrics"]


def test_eval_takes_only_baselines(tmp_path):
    """A plan output that is not a baseline, such as the student prompt,
    is no `--baseline`."""
    config = write_config(tmp_path / "c.json", tiny_config(tmp_path / "run"))
    assert main(["eval", "--config", config, "--baseline", "p_s"]) == EXIT_CONFIG
    assert not (tmp_path / "run").exists()


def test_written_checkpoints_load_and_reproduce_the_report(full_run, tmp_path):
    seed_dir = full_run / "seed0"
    models = {p.name: art.load_model(p) for p in sorted(seed_dir.glob("*.pstl"))}
    assert set(models) == {"teacher.pstl", "student.pstl", "control_student.pstl"}
    run = pl.SeedRun(pl.load_config(full_run / "config.json"), 0, str(tmp_path))
    pl.stage_data(run)
    test = run.outputs["private_test"]
    report = json.loads((full_run / "report.json").read_text())
    for baseline, model, prompt in (
        ("compressed_pt", "student.pstl", "prompt_student.pspa"),
        ("post", "teacher.pstl", "prompt_transferred.pspa"),
    ):
        accuracy = pl.eval_baseline(run, test, models[model], art.load_prompt(seed_dir / prompt))
        assert accuracy == report["baselines"][baseline]["per_seed"]["0"], baseline


def readers_of_roles(output: str) -> dict[str, set[str]]:
    """Data role -> the rows that read it among those a run walks back
    through STAGE_PLAN from `output` to build it, with no run."""
    needed = pl._outputs_needed({output})
    readers: dict[str, set[str]] = defaultdict(set)
    for row in pl.STAGE_PLAN:
        if row.output in needed:
            for name in row.inputs:
                if name in pl.DATA_ROLES:
                    readers[name].add(row.name)
    return readers


# every output other than an evaluated baseline or the attack: the models,
# prompts and transferred prompts
BUILT = [row.output for row in pl.STAGE_PLAN if row.name not in ("eval", "attacks")]


def test_the_dp_prompt_reads_private_train_only_through_its_dp_tuning():
    assert readers_of_roles("p_t_dp")["private_train"] == {"tune_student_dp"}


@pytest.mark.parametrize("output", BUILT)
def test_nothing_that_feeds_a_model_or_prompt_reads_private_test(output):
    assert "private_test" not in readers_of_roles(output)


@pytest.mark.parametrize("model", ["teacher", "student", "control_student"])
def test_no_model_reaches_private_train(model):
    assert "private_train" not in readers_of_roles(model)


def test_the_ledger_is_the_plans_declared_roles(full_run):
    """Each row a run ran wrote one ledger row per data role it declares."""
    report = json.loads((full_run / "report.json").read_text())
    records, ran = report["data_access"], [row["stage"] for row in report["timings"]][1:]
    declared = [
        (row.name, name) for row in pl.STAGE_PLAN for name in row.inputs if name in pl.DATA_ROLES
    ]
    assert [row.name for row in pl.STAGE_PLAN] == ran
    assert [(r["stage"], r["role"]) for r in records] == declared


def test_teacher_side_stages_never_read_private_train(full_run):
    records = json.loads((full_run / "report.json").read_text())["data_access"]

    def stages_reading(role):
        return {r["stage"] for r in records if r["role"] == role}

    assert stages_reading("private_train") == {
        "tune_student", "tune_student_dp", "full_pt", "control_tune", "attacks"
    }
    for stage in ("pretrain", "kd", "transfer", "transfer_dp", "control_lm", "control_transfer"):
        assert {r["role"] for r in records if r["stage"] == stage} <= {"kd_corpus", "public"}, stage
    assert stages_reading("private_test") == {"eval"}


@pytest.fixture(scope="module")
def post_dp_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipeline_post_dp")
    blob = tiny_config(out / "run", baselines=["post_dp"])
    blob["attack"]["enabled"] = False
    return pl.run_pipeline(pl.config_from_dict(blob)).to_dict()


def test_post_dp_reads_private_train_only_in_its_dp_tuning(post_dp_run):
    """The transfer's alpha comes from public rows, so a post_dp run reads
    the private train split once, under DP, and the private test split only
    to evaluate."""
    records = post_dp_run["data_access"]
    assert [r["stage"] for r in records if r["role"] == "private_train"] == ["tune_student_dp"]
    assert {r["stage"] for r in records if r["role"] == "private_test"} == {"eval"}
    assert [row["stage"] for row in post_dp_run["timings"]] == ["data", *ROWS_FOR["post_dp"], "eval"]


def test_resolved_alphas_follow_the_transfers_a_seed_ran(full_run, full_run_fixed_alpha, post_dp_run, tmp_path):
    whole = json.loads((full_run / "report.json").read_text())["resolved_alphas"]["0"]
    assert set(whole) == set(TRANSFER_ROWS)
    assert all(0.0 <= alpha <= 1.0 for alpha in whole.values())
    fixed = json.loads((full_run_fixed_alpha / "report.json").read_text())["resolved_alphas"]["0"]
    assert fixed == {row: 0.5 for row in TRANSFER_ROWS}
    # one transfer: its float, the alpha the whole plan's transfer_dp used
    assert post_dp_run["resolved_alphas"] == {"0": whole["transfer_dp"]}
    # no transfer: None, under a fixed alpha too
    blob = tiny_config(tmp_path / "run", baselines=["full_zs"], transfer_alpha=0.5)
    blob["attack"]["enabled"] = False
    assert pl.run_pipeline(pl.config_from_dict(blob)).resolved_alphas == {"0": None}


@pytest.mark.parametrize(
    "change",
    [
        {"bogus": 1},
        {"pretrain": {"steps": 20, "bogus": 1}},
        {"threads": 4},
        {"strict_deterministic": "yes"},
        {"baselines": ["not_a_baseline"]},
        {"pretrain": {"batch_size": 0}},
        {"pretrain": {"learning_rate": -1}},
        {"pretrain": {"steps": -3}},
        {"kd": {"max_steps": 0}},
        {"kd": {"bogus": 1}},
        {"kd": {"student_layer_indices": [1, 0]}},
        {"kd": {"student_layer_indices": [0, 2]}},  # the tiny teacher has 2 layers
        # the retired POST switches, at a value other than the one a run uses
        {"prompt": {"length": 2, "init_scheme": "embedding_sample"}},
        {"transfer": {"steps": 3, "label_space": "full_vocab"}},
        {"transfer": {"steps": 3, "init_from": "tuned"}},
        {"kd": {"max_steps": 10, "freeze_embedding": True}},
        {"kd": {"max_steps": 10, "freeze_lm_head": True}},
        {"task": {"kind": "synthetic", "n_classes": 2}},  # the rest of the task missing
        {"tune": {"epochs": 2, "eval_every": -1}},
        # values that a stage would reject only after the stages before it ran
        {"public_subset": 0},
        {"prompt": {"length": 0}},
        {"dp": {"epsilon": 0}},
        {"dp": {"delta": 2}},
        {"dp": {"clip_norm": 0}},
        {"attack": {"enabled": True, "n_shadows": 1}},
        {"attack": {"enabled": True, "label_noise": 1.5}},
        {"attack": {"enabled": True, "prompt_length": 0}},
        {"attack": {"enabled": True, "pool_size": 1}},
        {"attack": {"enabled": True, "learning_rate": -1}},
        {"attack": {"enabled": True, "epochs": -1}},
        {"attack": {"enabled": True, "batch_size": 0}},
        {"student_layers": 1, "kd": {"student_layer_indices": [0, 1]}},
        # an empty synthetic set, which no stage could load
        {"task": {"kind": "synthetic", **asdict(TASK), "n_private_train": 0}},
        {"task": {"kind": "synthetic", **asdict(TASK), "n_private_test": 0}},
        {"task": {"kind": "synthetic", **asdict(TASK), "n_public": 0}},
        {"task": {"kind": "synthetic", **asdict(TASK), "n_corpus_sentences": 0}},
        # an attack prompt the teacher's max_seq_len (32) cannot hold beside
        # the longest templated input (12 tokens)
        {"attack": {"enabled": True, "n_shadows": 2, "pool_size": 16, "epochs": 1, "batch_size": 8,
                    "prompt_length": 31}},
        {"seeds": [0, 0]},
        # seeds that are not a list of integers
        {"seeds": "12"},
        {"seeds": [1.9]},
        {"seeds": [True]},
        # a public_subset that is not a positive integer, baselines that are not a list of names
        {"public_subset": 1.5},
        {"public_subset": True},
        {"baselines": "post"},
        # the task section is taken whole: a partial one does not load
        {"task": {"kind": "synthetic", "n_public": 8}},
        # values of another type than their field's, which loaded or failed
        # only in the stage that read them
        {"transfer": {"steps": 1.5}},
        {"prompt": {"length": 2.5}},
        {"tune": {"epochs": 2.5}},
        {"attack": {"enabled": "yes"}},
        {"transfer_alpha": True},
        {"student_layers": True},
        {"kd": []},
        {"kd": {"max_steps": 1.5}},
        {"kd": {"student_layer_indices": [0.5]}},
        {"kd": {"weights": {"temperature": True}}},
        # a negative teacher layer
        {"kd": {"student_layer_indices": [-1]}},
        # teacher shapes that ModelConfig rejects, which failed only in pretraining
        {"teacher": {"n_layers": 2, "d_model": 10, "n_heads": 4, "max_seq_len": 32}},
        {"teacher": {"n_layers": 2, "d_model": 16, "n_heads": 0, "max_seq_len": 32}},
        {"teacher": {"n_layers": 2, "d_model": -16, "n_heads": 2, "max_seq_len": 32}},
        # a top-level "kind", which no version wrote: the task's kind is task.kind
        {"kind": "synthetic"},
    ],
)
def test_bad_config_exits_2(tmp_path, change):
    config = write_config(tmp_path / "c.json", tiny_config(tmp_path / "run", **change))
    assert main(["pipeline", "--config", config]) == EXIT_CONFIG


@pytest.mark.parametrize(
    "build",
    [
        lambda: pl.PretrainConfig(learning_rate=math.nan),
        lambda: KdConfig(learning_rate=math.nan),
        lambda: TuneConfig(learning_rate=math.nan),
        lambda: TransferConfig(learning_rate=math.nan),
        lambda: pl.AttackConfig(learning_rate=math.nan),
        lambda: KdWeights(temperature=math.nan),
        lambda: KdWeights(alpha_ce=math.nan),
        lambda: KdWeights(alpha_lm=math.nan),
        lambda: pl.DpSpec(epsilon=math.nan),
        lambda: pl.DpSpec(clip_norm=math.nan),
    ],
    ids=[
        "pretrain.learning_rate", "kd.learning_rate", "tune.learning_rate", "transfer.learning_rate",
        "attack.learning_rate", "kd.weights.temperature", "kd.weights.alpha_ce", "kd.weights.alpha_lm",
        "dp.epsilon", "dp.clip_norm",
    ],
)
def test_a_section_built_with_nan_raises(build):
    """A program caller that builds a section skips the config reader's
    finite-number check, so each section's own range check fails on NaN."""
    with pytest.raises(ValueError):
        build()


def test_an_attack_prompt_length_binds_only_when_the_attack_runs(tmp_path):
    blob = tiny_config(tmp_path / "run", baselines=["full_zs"])
    blob["attack"].update(enabled=False, prompt_length=31)
    assert main(["pipeline", "--config", write_config(tmp_path / "c.json", blob)]) == EXIT_OK


@pytest.mark.parametrize(
    "section, key, value",
    [
        # the retired switches, at the values no run uses
        ("teacher", "tie_lm_head", True),
        ("attack", "with_dp", False),
        # JSON's NaN and Infinity, which Python's reader accepts
        ("dp", "epsilon", math.nan),
        ("dp", "clip_norm", math.inf),
        ("pretrain", "learning_rate", math.inf),
        ("tune", "learning_rate", math.nan),
        ("kd", "learning_rate", math.nan),
        ("transfer", "learning_rate", -math.inf),
    ],
)
def test_a_retired_switch_or_a_non_finite_number_exits_2_naming_its_key(tmp_path, caplog, section, key, value):
    blob = tiny_config(tmp_path / "run")
    blob[section] = {**blob.get(section, {}), key: value}
    assert main(["pipeline", "--config", write_config(tmp_path / "c.json", blob)]) == EXIT_CONFIG
    assert f"{section}.{key}" in caplog.text
    assert not (tmp_path / "run").exists()


def test_unreadable_config_exits_2(tmp_path):
    assert main(["pipeline", "--config", str(tmp_path / "missing.json")]) == EXIT_CONFIG
    # a directory, and a file that is not UTF-8 text
    assert main(["pipeline", "--config", str(tmp_path)]) == EXIT_CONFIG
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"output_dir": "caf\xe9"}'.encode("latin-1"))
    assert main(["pipeline", "--config", str(latin1)]) == EXIT_CONFIG
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["pipeline", "--config", str(bad)]) == EXIT_CONFIG
    bad.write_text("[]")  # valid JSON, but not an object
    assert main(["pipeline", "--config", str(bad)]) == EXIT_CONFIG
    assert main(["eval", "--config", write_config(tmp_path / "c.json", tiny_config(tmp_path)),
                 "--baseline", "nope"]) == EXIT_CONFIG


def test_an_unknown_output_is_a_config_error(tmp_path):
    """A row name that is no output ("tune") fails before anything runs."""
    with pytest.raises(pl.ConfigError, match=r"unknown outputs \['tune'\]"):
        pl.run_pipeline(pl.config_from_dict(tiny_config(tmp_path / "run")), {"p_s", "tune"})
    assert not (tmp_path / "run").exists()


def test_failing_stage_exits_3(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("transfer diverged")

    monkeypatch.setattr(pl, "transfer_prompt", broken)
    config = write_config(tmp_path / "c.json", tiny_config(tmp_path / "run"))
    assert main(["pipeline", "--config", config]) == EXIT_STAGE


def test_one_failed_seed_is_reported_and_exits_3(tmp_path, monkeypatch):
    transfer = pl.transfer_prompt
    calls = []

    def first_call_fails(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise RuntimeError("transfer diverged")
        return transfer(*args, **kwargs)

    monkeypatch.setattr(pl, "transfer_prompt", first_call_fails)
    blob = tiny_config(tmp_path / "run", baselines=["post"], seeds=[0, 1])
    blob["attack"]["enabled"] = False
    assert main(["pipeline", "--config", write_config(tmp_path / "c.json", blob)]) == EXIT_STAGE
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert set(report["seed_errors"]) == {"0"} and "transfer diverged" in report["seed_errors"]["0"]
    assert set(report["baselines"]["post"]["per_seed"]) == {"1"}


def test_a_finished_seed_keeps_only_what_the_report_reads(full_run, tmp_path, monkeypatch):
    """Seed 0's teacher is freed before seed 1 pretrains its own, and the
    two-seed report gives seed 0 what the one-seed run reported."""
    teachers, alive = [], []
    init_model = pl.init_model

    def tracked(*args, **kwargs):
        alive.append([ref() is not None for ref in teachers])
        model = init_model(*args, **kwargs)
        teachers.append(weakref.ref(model))
        return model

    monkeypatch.setattr(pl, "init_model", tracked)
    blob = tiny_config(tmp_path / "run", seeds=[0, 1])
    assert main(["pipeline", "--config", write_config(tmp_path / "c.json", blob)]) == EXIT_OK
    assert alive == [[], [False]]
    two, one = (json.loads((out / "report.json").read_text()) for out in (tmp_path / "run", full_run))
    assert set(two["baselines"]) == set(one["baselines"]) and set(two["attack_metrics"]) == set(one["attack_metrics"])
    for kind, entry in one["baselines"].items():
        assert set(two["baselines"][kind]["per_seed"]) == {"0", "1"}
        assert two["baselines"][kind]["per_seed"]["0"] == entry["per_seed"]["0"]
    for tag, entry in one["attack_metrics"].items():
        assert two["attack_metrics"][tag]["auc_per_seed"]["0"] == entry["auc_per_seed"]["0"]
    assert two["resolved_alphas"]["0"] == one["resolved_alphas"]["0"]
    assert [r["stage"] for r in two["timings"] if r["seed"] == 0] == [r["stage"] for r in one["timings"]]
    assert set(two["artifacts"]["seed0"]) == set(one["artifacts"]["seed0"])


@pytest.mark.parametrize(
    "section, key, value, controller",
    [
        ("transfer", "alpha", 0.3, "transfer_alpha"),
        ("transfer", "seed", 4, "seeds"),
        ("tune", "seed", 4, "seeds"),
        ("task", "seed", 4, "seeds"),
        ("tune", "dp", {"epsilon": 1.0}, "`dp`"),
    ],
)
def test_overwritten_key_names_the_key_that_sets_it(tmp_path, section, key, value, controller):
    blob = tiny_config(tmp_path)
    blob[section] = {**blob[section], key: value}
    with pytest.raises(pl.ConfigError, match=f"{section}.{key}: .*{controller}"):
        pl.config_from_dict(blob)


def older_config_json(blob: dict) -> dict:
    """The config.json that versions with the five POST switches wrote for
    `blob`: every key that now sets nothing, at the value the run used, plus
    the keys of still older configs."""
    old = pl.config_to_dict(pl.config_from_dict(blob))
    old["prompt"]["init_scheme"] = "gaussian"
    old["transfer"].update(label_space="class_distribution", init_from="initial", seed=0)
    old["tune"].update(seed=0, dp=None)
    old["task"]["seed"] = 0
    old["kd"].update(freeze_embedding=False, freeze_lm_head=False)
    old.update(threads=1, strict_deterministic=False)
    return old


def test_config_json_of_older_versions_reloads(tmp_path):
    blob = tiny_config(tmp_path)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(older_config_json(blob), indent=2, sort_keys=True))
    config = pl.load_config(path)
    assert config == pl.config_from_dict(blob)
    written = pl.config_to_dict(config)
    for section, key in pl.FIXED_KEYS:
        assert key not in (written if section is None else written.get(section, {})), (section, key)


def test_config_json_round_trip(full_run, tmp_path):
    blob = tiny_config(tmp_path)
    config = pl.config_from_dict(blob)
    assert pl.config_from_dict(json.loads(json.dumps(pl.config_to_dict(config)))) == config
    assert pl.load_config(full_run / "config.json") == pl.config_from_dict(tiny_config(full_run))
    assert pl.config_from_dict(pl.config_to_dict(pl.ExperimentConfig())) == pl.ExperimentConfig()
    # keys that configs of earlier versions carry are accepted and dropped
    for legacy in ({"threads": 1}, {"strict_deterministic": True}, {"threads": 1, "strict_deterministic": False}):
        assert pl.config_from_dict({**blob, **legacy}) == config
    with pytest.raises(pl.ConfigError, match="threads"):
        pl.config_from_dict({**blob, "threads": 2})
    # so are the keys of the retired plateau stop, even with values under
    # which it would have ended both runs at their first check
    stopping = {"plateau_window": 2, "plateau_tolerance": 1.0}
    retired = {
        **blob,
        "pretrain": {**blob["pretrain"], **stopping, "check_interval": 4},
        "kd": {**blob["kd"], **stopping, "checkpoint_interval": 4},
    }
    assert pl.config_from_dict(retired) == config
    assert pl.config_to_dict(pl.config_from_dict(retired)) == pl.config_to_dict(config)
    # the tied LM head and the attack's DP switch are gone: their keys load at
    # the value every run uses, and are not written back
    switches = {
        **blob,
        "teacher": {**blob["teacher"], "tie_lm_head": False},
        "attack": {**blob["attack"], "with_dp": True},
    }
    assert pl.config_from_dict(switches) == config
    written = pl.config_to_dict(pl.config_from_dict(switches))
    assert written == pl.config_to_dict(config)
    assert "tie_lm_head" not in written["teacher"] and "with_dp" not in written["attack"]


def _leaves(section, prefix=""):
    """(dotted key, value) for every field of `section`, through nested sections."""
    for f in fields(section):
        value = getattr(section, f.name)
        if is_dataclass(value):
            yield from _leaves(value, f"{prefix}{f.name}.")
        else:
            yield f"{prefix}{f.name}", value


def test_a_config_with_every_key_set_survives_json(tmp_path):
    """Every key of every section, nested ones included, at a value other
    than the default experiment's comes back equal through config_to_dict,
    JSON and config_from_dict."""
    task = SynthTaskSpec(
        n_classes=3,
        class_keyword_pools=(("grim", "sour"), ("glad", "warm"), ("odd", "new")),
        noise_vocab=("the", "a", "film"),
        length_range=(5, 9),
        keyword_density=0.3,
        seed=0,  # set from `seeds`, so never written
        verbalizer_words=(("bad",), ("good", "fine"), ("meh",)),
        template_suffix=", so",
        n_private_train=40,
        n_private_test=30,
        n_public=20,
        n_corpus_sentences=50,
        corpus_verbalizer_rate=0.25,
    )
    config = pl.ExperimentConfig(
        teacher=pl.ArchSpec(n_layers=6, d_model=32, n_heads=2, max_seq_len=48),
        student_layers=3,
        pretrain=pl.PretrainConfig(steps=7, batch_size=3, learning_rate=0.5),
        kd=KdConfig(
            student_layer_indices=(0, 2, 5),
            weights=KdWeights(alpha_ce=1.5, alpha_lm=0.5, alpha_cos=0.25, temperature=3.0),
            learning_rate=0.01,
            batch_size=2,
            max_steps=9,
        ),
        prompt=pl.PromptSpec(length=3),
        tune=TuneConfig(epochs=4, learning_rate=0.2, batch_size=5, eval_every=2),
        dp=pl.DpSpec(epsilon=3.0, delta=1e-5, clip_norm=0.5),
        transfer_alpha=0.25,
        transfer=TransferConfig(steps=6, learning_rate=0.03, batch_size=4),
        task=task,
        baselines=("post", "post_dp"),
        attack=pl.AttackConfig(
            enabled=True, n_shadows=3, pool_size=20, label_noise=0.3, epochs=2,
            learning_rate=0.1, batch_size=4, prompt_length=2,
        ),
        public_subset=12,
        seeds=(4, 9),
        output_dir=str(tmp_path / "run"),
    )
    fixed = {f"{section}.{key}" if section else key for section, key in pl.FIXED_KEYS}
    default = dict(_leaves(pl.ExperimentConfig()))
    assert [key for key, value in _leaves(config) if key not in fixed and value == default[key]] == []
    assert pl.config_from_dict(json.loads(json.dumps(pl.config_to_dict(config)))) == config


def test_config_digest_names_the_experiment_not_its_directory(tmp_path):
    config = pl.config_from_dict(tiny_config(tmp_path / "a"))
    assert replace(config, output_dir=str(tmp_path / "b")).digest() == config.digest()
    assert replace(config, seeds=(7,)).digest() != config.digest()
    assert replace(config, tune=replace(config.tune, epochs=config.tune.epochs + 1)).digest() != config.digest()


def test_partial_section_keeps_the_default_experiments_values(tmp_path):
    default = pl.ExperimentConfig()
    config = pl.config_from_dict({"tune": {"epochs": 20}, "attack": {"n_shadows": 3}})
    # the default experiment tunes at learning rate 0.01 in batches of 16,
    # not at TuneConfig's class defaults (0.001 and 32)
    assert config.tune == default.tune
    assert (config.tune.learning_rate, config.tune.batch_size) == (1e-2, 16)
    assert config.attack == replace(default.attack, n_shadows=3)
    assert pl.config_from_dict({"tune": {"epochs": 5}}).tune == replace(default.tune, epochs=5)
    with pytest.raises(pl.ConfigError, match="epoch"):
        pl.load_config(write_config(tmp_path / "typo.json", {"tune": {"epoch": 5}}))


@pytest.fixture
def csv_task(tmp_path) -> dict:
    """The tiny task's splits as `text,label` CSVs and its corpus as lines."""
    private, public, corpus = gen_synth_pair(TASK)
    task = {"kind": "csv", "template_suffix": TASK.template_suffix,
            "verbalizer_words": [list(ws) for ws in TASK.verbalizer_words]}
    for split, ds in (("train", private.split("train")), ("test", private.split("test")), ("public", public)):
        task[split] = str(tmp_path / f"{split}.csv")
        write_csv(ds, task[split])
    task["corpus"] = str(tmp_path / "corpus.txt")
    Path(task["corpus"]).write_text("\n".join(corpus) + "\n", encoding="utf-8")
    return task


def csv_config(tmp_path, task: dict) -> str:
    blob = tiny_config(tmp_path / "run", task=task)
    blob["attack"]["enabled"] = False
    return write_config(tmp_path / "config_in.json", blob)


def test_csv_task_runs_the_pipeline(tmp_path, csv_task):
    assert main(["pipeline", "--config", csv_config(tmp_path, csv_task)]) == EXIT_OK
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert set(report["baselines"]) == set(BASELINES)
    config = pl.load_config(tmp_path / "run" / "config.json")
    assert isinstance(config.task, pl.CsvTask)
    assert config == pl.load_config(tmp_path / "config_in.json")


def test_csv_label_outside_the_classes_exits_3(tmp_path, csv_task, caplog):
    rows = Path(csv_task["train"]).read_text(encoding="utf-8").splitlines()
    rows[3] = rows[3].rsplit(",", 1)[0] + ",2"  # two classes: 0 and 1
    Path(csv_task["train"]).write_text("\n".join(rows) + "\n", encoding="utf-8")
    assert main(["pipeline", "--config", csv_config(tmp_path, csv_task)]) == EXIT_STAGE
    assert f"{csv_task['train']}: row 4: label 2 out of range" in caplog.text


@pytest.mark.parametrize("part", ["train", "test", "public", "corpus"])
def test_a_csv_task_file_without_data_exits_3_naming_it(tmp_path, csv_task, caplog, part):
    path = Path(csv_task[part])
    path.write_text("" if part == "corpus" else "text,label\n", encoding="utf-8")
    assert main(["pipeline", "--config", csv_config(tmp_path, csv_task)]) == EXIT_STAGE
    assert f"{path}: no " in caplog.text


@pytest.mark.parametrize("sets", [[], [["bad"]]])
def test_a_csv_task_with_fewer_than_two_classes_exits_2_before_any_stage(tmp_path, csv_task, sets):
    assert main(["pipeline", "--config", csv_config(tmp_path, {**csv_task, "verbalizer_words": sets})]) == EXIT_CONFIG
    assert not (tmp_path / "run").exists()


def test_csv_task_without_its_train_file_exits_2(tmp_path, csv_task):
    no_key = {k: v for k, v in csv_task.items() if k != "train"}
    assert main(["pipeline", "--config", csv_config(tmp_path, no_key)]) == EXIT_CONFIG
    Path(csv_task["train"]).unlink()
    assert main(["pipeline", "--config", csv_config(tmp_path, csv_task)]) == EXIT_CONFIG
