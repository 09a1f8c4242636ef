"""The stage plan, its CLI subcommands, the data-access ledger, config
loading and the CSV task, on a tiny config (2-layer d=16 teacher, 32-example
task) that runs the whole plan in about a second."""

import json
from pathlib import Path

import pytest

from promptxfer import artifacts as art
from promptxfer import pipeline as pl
from promptxfer.cli import EXIT_CONFIG, EXIT_OK, EXIT_STAGE, main
from promptxfer.corpus import default_task_spec, gen_synth_pair, write_csv

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
        "task": {"kind": "synthetic", **TASK.to_dict()},
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


@pytest.mark.parametrize(
    "name, rows", [("pretrain_loss.csv", PRETRAIN_STEPS), ("kd_loss.csv", KD_STEPS), ("control_lm_loss.csv", KD_STEPS)]
)
def test_lm_training_runs_every_configured_step(full_run, name, rows):
    lines = (full_run / "seed0" / name).read_text().splitlines()
    assert len(lines) == 1 + rows  # header + one row per step


@pytest.mark.parametrize(
    "command, files, stages",
    [
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
    ],
)
def test_subcommand_runs_a_prefix_of_the_plan_and_writes_what_the_pipeline_writes(
    full_run, tmp_path, command, files, stages
):
    config = write_config(tmp_path / "config_in.json", tiny_config(tmp_path / "run"))
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


def test_eval_restricts_the_baselines(full_run, tmp_path):
    config = write_config(tmp_path / "config_in.json", tiny_config(tmp_path / "run"))
    assert main(["eval", "--config", config, "--baseline", "full_zs", "--baseline", "post"]) == EXIT_OK
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    full = json.loads((full_run / "report.json").read_text())
    assert report["baselines"] == {k: full["baselines"][k] for k in ("full_zs", "post")}


def test_written_checkpoints_load_and_reproduce_the_report(full_run, tmp_path):
    seed_dir = full_run / "seed0"
    models = {p.name: art.load_model(p) for p in sorted(seed_dir.glob("*.pstl"))}
    assert set(models) == {"teacher.pstl", "student.pstl", "control_student.pstl"}
    run = pl.SeedRun(pl.load_config(full_run / "config.json"), 0, pl.DataAccessLedger(), str(tmp_path))
    pl.stage_data(run)
    report = json.loads((full_run / "report.json").read_text())
    for baseline, model, prompt in (
        ("compressed_pt", "student.pstl", "prompt_student.pspa"),
        ("post", "teacher.pstl", "prompt_transferred.pspa"),
    ):
        accuracy = pl._accuracy(models[model], run.data.private_test, prompt=art.load_prompt(seed_dir / prompt))
        assert accuracy == report["baselines"][baseline]["per_seed"]["0"], baseline


def test_teacher_side_stages_never_read_private_train(full_run):
    records = json.loads((full_run / "data_access.json").read_text())

    def stages_reading(role):
        return {r["stage"] for r in records if r["role"] == role}

    assert stages_reading("private_train") == {
        "tune_student", "tune_student_dp", "full_pt", "control_tune", "attacks"
    }
    for stage in ("pretrain", "kd", "transfer", "transfer_dp", "control_lm", "control_transfer"):
        assert {r["role"] for r in records if r["stage"] == stage} <= {"kd_corpus", "public"}, stage
    assert stages_reading("private_test") == {"eval"}


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
    ],
)
def test_bad_config_exits_2(tmp_path, change):
    config = write_config(tmp_path / "c.json", tiny_config(tmp_path / "run", **change))
    assert main(["pipeline", "--config", config]) == EXIT_CONFIG


def test_unreadable_config_exits_2(tmp_path):
    assert main(["pipeline", "--config", str(tmp_path / "missing.json")]) == EXIT_CONFIG
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["pipeline", "--config", str(bad)]) == EXIT_CONFIG
    assert main(["eval", "--config", write_config(tmp_path / "c.json", tiny_config(tmp_path)),
                 "--baseline", "nope"]) == EXIT_CONFIG


def test_unknown_stage_is_a_config_error(tmp_path):
    with pytest.raises(pl.ConfigError, match="unknown stage"):
        pl.run_pipeline(pl.config_from_dict(tiny_config(tmp_path)), through="tune")


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


def test_csv_task_without_its_train_file_exits_2(tmp_path, csv_task):
    no_key = {k: v for k, v in csv_task.items() if k != "train"}
    assert main(["pipeline", "--config", csv_config(tmp_path, no_key)]) == EXIT_CONFIG
    Path(csv_task["train"]).unlink()
    assert main(["pipeline", "--config", csv_config(tmp_path, csv_task)]) == EXIT_CONFIG
