"""The benchmark in perfbench/ wraps functions of the program by name.  A
renamed or removed hooked function must fail here, not only in a traced
benchmark run."""

import gc
import importlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from test_pipeline import tiny_config

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = ("pipeline", "model", "autograd", "optim", "tuning", "accountant", "attacks", "artifacts", "corpus")


def test_perfbench_workload_configs_load(monkeypatch, tmp_path):
    """Every config the benchmark writes loads, so a config key it still
    writes cannot be removed from the program unnoticed."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    pipeline = importlib.import_module("promptxfer.pipeline")
    assert workloads.WORKLOADS
    for name, wl in workloads.WORKLOADS.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(wl.config(0, str(tmp_path / name))))
        config = pipeline.load_config(path)
        assert config.baselines == wl.baselines
        assert config.attack.enabled == wl.attack
        # the step counts perfbench's require_counts expects
        assert config.pretrain.steps == workloads.PRETRAIN_STEPS
        assert config.kd_config().max_steps == workloads.KD_STEPS


def test_perfbench_workload_configs_load_unchanged(monkeypatch, tmp_path):
    """Each workload sets every key of each section it gives, so loading a
    section over the default experiment's section gives the same config as
    building it from its class defaults did."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    wls = importlib.import_module("workloads")
    pl = importlib.import_module("promptxfer.pipeline")
    TuneConfig = importlib.import_module("promptxfer.tuning").TuneConfig
    TransferConfig = importlib.import_module("promptxfer.transfer").TransferConfig
    KdConfig = importlib.import_module("promptxfer.distill").KdConfig
    for name, wl in wls.WORKLOADS.items():
        out = str(tmp_path / name)
        expected = pl.ExperimentConfig(
            student_layers=2,
            pretrain=pl.PretrainConfig(steps=wls.PRETRAIN_STEPS, batch_size=16, learning_rate=3e-3),
            kd=KdConfig(max_steps=wls.KD_STEPS),
            tune=TuneConfig(epochs=wls.TUNE_EPOCHS, learning_rate=1e-2, batch_size=wls.TUNE_BATCH),
            transfer_alpha="heuristic",
            transfer=TransferConfig(steps=wls.TRANSFER_STEPS, learning_rate=1e-3, batch_size=wls.TRANSFER_BATCH),
            public_subset=wls.TRANSFER_BATCH,
            baselines=wl.baselines,
            attack=pl.AttackConfig(
                enabled=wl.attack, n_shadows=wls.ATTACK_SHADOWS, pool_size=wls.ATTACK_POOL,
                epochs=wls.ATTACK_EPOCHS, batch_size=wls.ATTACK_BATCH,
            ),
            seeds=(0,),
            output_dir=out,
        )
        assert pl.config_from_dict(wl.config(0, out)) == expected, name


def _workload_cases():
    """(workload name, seed): every benchmark workload, post_dp at two seeds."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        names = list(importlib.import_module("workloads").WORKLOADS)
    finally:
        sys.path.remove(str(PERFBENCH))
    return [(name, seed) for name in names for seed in ((0, 1) if name == "post_dp" else (0,))]


@pytest.mark.parametrize("name, seed", _workload_cases())
def test_traced_workload_fires_every_expected_hook(monkeypatch, tmp_path, name, seed):
    """A workload's baselines and attack flag, on the tiny pipeline config,
    run under the benchmark's boundary, save log and tracer and reload what
    they wrote, as a traced benchmark run does; every hook the benchmark
    requires of that workload must fire."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    run = importlib.import_module("run")
    wl = importlib.import_module("workloads").WORKLOADS[name]
    px = {m: importlib.import_module(f"promptxfer.{m}") for m in MODULES}
    pipeline = px["pipeline"]
    blob = tiny_config(tmp_path / "run", baselines=list(wl.baselines), seeds=[seed])
    blob["attack"]["enabled"] = wl.attack

    patches = tracing.Patches()
    try:
        boundary = tracing.Boundary()
        saves = tracing.SaveLog()
        boundary.install(patches, pipeline)
        saves.install(patches, px["artifacts"])
        tracer = tracing.Tracer(boundary)
        tracer.install(patches, px)
        report = pipeline.run_pipeline(pipeline.config_from_dict(blob))
        failures = run.reload_artifacts(px, saves)
    finally:
        patches.restore()
    assert report.seed_errors == {} and failures == []
    tracer.require(run.expected_hooks(wl))


def test_perfbench_hooks_install_on_the_program_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    px = {name: importlib.import_module(f"promptxfer.{name}") for name in MODULES}
    lm = px["model"].TransformerLM
    owners = [*px.values(), lm, px["autograd"].Tensor, px["optim"].Optimizer, px["pipeline"].SeedRun]
    before = [dict(vars(o)) for o in owners]
    forward = lm._forward_batch
    callbacks = list(gc.callbacks)

    patches = tracing.Patches()
    try:
        boundary = tracing.Boundary()
        boundary.install(patches, px["pipeline"])
        tracing.SaveLog().install(patches, px["artifacts"])
        tracing.Tracer(boundary).install(patches, px)
        assert lm._forward_batch is not forward
    finally:
        patches.restore()
    assert [dict(vars(o)) for o in owners] == before
    assert gc.callbacks == callbacks


def test_prompted_forward_reads_head_useful_ratio_one(monkeypatch):
    """perfbench's head ratio divides the logits' rows by the rows of `ids`;
    a prompted answer-position forward must still compute one head row per
    sequence, for a shared prompt and for one copy per row."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    px = {name: importlib.import_module(f"promptxfer.{name}") for name in MODULES}
    model = px["model"]
    lm = model.init_model(model.ModelConfig(n_layers=2, d_model=8, n_heads=2, vocab_size=12, max_seq_len=16), 0)
    seqs = [np.array([1, 2, 3]), np.array([4, 5, 6, 7, 8]), np.array([9])]
    prompt = model.init_prompt(lm, length=4, seed=0)

    patches = tracing.Patches()
    try:
        boundary = tracing.Boundary()
        boundary.prompt_start = 0.0  # count head rows as in the prompt phase
        tracer = tracing.Tracer(boundary)
        tracer.install(patches, px)
        model.answer_log_probs(lm, seqs, [[10], [11]], prompt)
        model.answer_log_probs(lm, seqs, [[10], [11]], np.stack([prompt.matrix] * len(seqs)))
        metrics = tracer.metrics(0.0, 0.0, 0.0)
    finally:
        patches.restore()
    assert tracer.calls["forward"] == 2
    assert metrics["model.head_useful_ratio"] == 1.0


def test_graph_node_count_is_one_per_tensor_needing_a_gradient(monkeypatch):
    """perfbench's `autograd.nodes_per_backward` walks `_parents` from the
    root tensor.  A graph of nodes must count what the graph of tensors
    counted: the root, one per op output that needs a gradient and one per
    leaf that requires one (66 for this loss when tensors were linked; 62
    since each block's two layer norms run inside its attention and MLP
    nodes)."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    model = importlib.import_module("promptxfer.model")
    lm = model.init_model(model.ModelConfig(vocab_size=20, d_model=8, n_heads=2, n_layers=2, max_seq_len=12), 0)
    lm.set_trainable(True)
    loss = model.lm_loss(lm, np.array([[1, 2, 3, 4, 5], [6, 7, 8, 9, 10]]))
    assert tracing._graph_nodes(loss) == 62
    loss.backward()
    assert tracing._graph_nodes(loss) == 1
