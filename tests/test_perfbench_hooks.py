"""The benchmark in perfbench/ wraps functions of the program by name.  A
renamed or removed hooked function must fail here, not only in a traced
benchmark run."""

import gc
import importlib
import json
from pathlib import Path

import numpy as np

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
