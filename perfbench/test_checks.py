"""Each output check of the benchmark can fail, and the traced run fails
loudly when a hook never fires.

    python3 -m pytest perfbench -q
"""

import importlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import checks  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
from promptxfer import artifacts, attacks, autograd, model, pipeline, transfer, tuning  # noqa: E402

VERBALIZERS = ((3, 4), (5, 6))


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """A float32 model with confident answers, written and read back, plus
    a prompt, test sequences and the program's predictions with that prompt."""
    cfg = model.ModelConfig(n_layers=2, d_model=16, n_heads=2, vocab_size=24, max_seq_len=24)
    lm = model.init_model(cfg, seed=3)
    for p in lm.parameters():
        if p.data.ndim == 2:  # large weights, so the prompt moves the answers
            p.data = p.data * np.float32(25.0)
    path = tmp_path_factory.mktemp("tiny") / "model.pstl"
    artifacts.save_model(path, lm)
    rng = np.random.default_rng(0)
    sequences = [rng.integers(7, 24, size=int(rng.integers(4, 10))) for _ in range(64)]
    prompt = model.initial_prompt_matrix(16, 4, seed=11)
    preds = model.classify_batch(lm, sequences, VERBALIZERS, prompt=prompt)
    return lm, reference.read_checkpoint(path), sequences, prompt, preds


def test_reference_forward_matches_program(tiny):
    lm, (meta, params), sequences, prompt, _ = tiny
    ref = reference.Reference(meta, params).class_log_probs(sequences, VERBALIZERS, prompt.astype(np.float64))
    got = model.class_log_probs_batch(lm, sequences, VERBALIZERS, prompt=prompt)
    np.testing.assert_allclose(ref, got, atol=1e-4)


def test_accuracy_check_passes_on_the_written_weights(tiny):
    _, (meta, params), sequences, prompt, preds = tiny
    lp = reference.Reference(meta, params).class_log_probs(sequences, VERBALIZERS, prompt.astype(np.float64))
    assert checks.check_accuracy("tiny", 1.0, lp, preds) == []


def test_accuracy_check_fails_on_a_perturbed_weight(tiny):
    _, (meta, params), sequences, prompt, preds = tiny
    bad = dict(params)
    bad["lm_head"] = params["lm_head"].copy()
    bad["lm_head"][:, [3, 4, 5, 6]] = params["lm_head"][:, [5, 6, 3, 4]]
    lp = reference.Reference(meta, bad).class_log_probs(sequences, VERBALIZERS, prompt.astype(np.float64))
    assert checks.check_accuracy("tiny", 1.0, lp, preds)


def test_accuracy_check_fails_on_a_swapped_prompt(tiny):
    _, (meta, params), sequences, _, preds = tiny
    other = model.initial_prompt_matrix(16, 4, seed=12).astype(np.float64)
    lp = reference.Reference(meta, params).class_log_probs(sequences, VERBALIZERS, other)
    assert checks.check_accuracy("tiny", 1.0, lp, preds)


def test_transfer_objective_matches_program_loss():
    rng = np.random.default_rng(1)
    s_p, s_0, t_0, t_p = (rng.normal(size=3) for _ in range(4))
    total, _, _ = transfer.transfer_loss(autograd.Tensor(t_p), t_0, s_p, s_0, 0.3)
    expected = reference.kl_mix_objective(s_p[None], s_0[None], t_0[None], t_p[None], 0.3)
    assert expected == pytest.approx(total.item(), rel=1e-5)


def test_dp_check_fails_when_sigma_is_ten_percent_small():
    n, batch, epochs = 256, 16, 3
    dp = tuning.make_dp_params(n, batch, epochs, epsilon=8.0)
    meta = {"epsilon": dp.epsilon, "delta": dp.delta, "sigma": dp.noise_multiplier, "clip_norm": dp.clip_norm}
    q, steps = batch / n, epochs * -(-n // batch)
    assert checks.check_dp("p_s_dp", meta, q, steps) == []
    assert checks.check_dp("p_s_dp", {**meta, "sigma": 0.9 * meta["sigma"]}, q, steps)
    assert checks.check_dp("p_s_dp", None, q, steps)


def test_ledger_check_fails_on_private_train_in_a_transfer_stage():
    ledger = pipeline.DataAccessLedger()
    ledger.log(0, "pretrain", "kd_corpus", "corpus")
    ledger.log(0, "tune_student", "private_train", "private/train")
    ledger.log(0, "transfer", "public", "public[:32]")
    assert checks.check_data_roles(ledger.to_list()) == []
    ledger.log(0, "transfer_dp", "private_train", "private/train")
    assert checks.check_data_roles(ledger.to_list())


def test_auc_check_fails_on_flipped_member_labels():
    rng = np.random.default_rng(2)
    members = np.arange(40) % 2 == 0
    scores = rng.normal(size=40) + members
    reported = attacks.auc(scores, members)
    assert checks.check_attack_auc("lira", reported, scores, members) == []
    assert checks.check_attack_auc("lira", reported, scores, ~members)


def test_traced_run_fails_loudly_when_a_hook_never_fires():
    names = ("pipeline", "model", "autograd", "optim", "tuning", "accountant", "attacks", "artifacts")
    px = {name: importlib.import_module(f"promptxfer.{name}") for name in names}
    original = model.TransformerLM._forward_batch
    patches = tracing.Patches()
    tracer = tracing.Tracer(tracing.Boundary())
    tracer.install(patches, px)
    try:
        cfg = model.ModelConfig(n_layers=1, d_model=8, n_heads=2, vocab_size=12, max_seq_len=8)
        model.classify_batch(model.init_model(cfg, 0), [np.array([2, 7, 8])], VERBALIZERS)
        tracer.require({"forward", "eval_rows"})
        with pytest.raises(tracing.TraceError, match="transfer"):
            tracer.require({"forward", "transfer"})
    finally:
        patches.restore()
    assert model.TransformerLM._forward_batch is original


def test_hook_counts_that_disagree_with_the_config_fail():
    tracer = tracing.Tracer(tracing.Boundary())
    with pytest.raises(tracing.TraceError, match="transfer.steps"):
        tracer.require_counts({"transfer.steps": 50}, {"transfer.steps": 49})


def test_benchmark_json_lists_the_traced_metrics():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert listed == list(tracing.PER_LAYER)
