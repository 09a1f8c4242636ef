from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promptxfer.accountant import rdp_epsilon
from promptxfer.autograd import Tensor
from promptxfer.corpus import default_task_spec, gen_synth_pair, tokenize_corpus
from promptxfer.distill import KdConfig, distill
from promptxfer import autograd as ag
from promptxfer import tuning
from promptxfer.model import (
    ROWS_PER_FORWARD,
    ModelConfig,
    SoftPrompt,
    answer_log_probs,
    classify_batch,
    init_model,
    init_prompt,
)
from promptxfer.optim import EPS, Optimizer
from promptxfer.tuning import (
    DpParams,
    TuneConfig,
    clip_gradient,
    default_delta,
    make_dp_params,
    promptdpsgd_step,
    tune_prompt,
)


# ---------------------------------------------------------------------------
# clip_gradient
# ---------------------------------------------------------------------------


def test_clip_examples():
    g = np.array([0.3, 0.4])  # norm 0.5
    np.testing.assert_array_equal(clip_gradient(g, 1.0), g)
    np.testing.assert_allclose(clip_gradient(np.array([3.0, 4.0]), 1.0), [0.6, 0.8], rtol=1e-7)
    z = np.zeros(3)
    np.testing.assert_array_equal(clip_gradient(z, 1.0), z)


def test_clip_rows():
    g = np.array([[0.0, 0.0, 0.0], [0.3, 0.4, 0.0], [3.0, 0.0, 4.0]])  # norms 0, 0.5, 5
    clipped = clip_gradient(g, 1.0)
    np.testing.assert_array_equal(clipped[:2], g[:2])
    np.testing.assert_allclose(clipped[2], [0.6, 0.0, 0.8], rtol=1e-12)
    for row, want in zip(g, clipped):
        np.testing.assert_array_equal(clip_gradient(row, 1.0), want)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=16),
    st.floats(1e-3, 1e3),
)
def test_clip_norm_property(vals, c):
    g = np.asarray(vals)
    clipped = clip_gradient(g, c)
    expected = min(float(np.linalg.norm(g)), c)
    assert np.linalg.norm(clipped) == pytest.approx(expected, rel=1e-6, abs=1e-9)


# ---------------------------------------------------------------------------
# fixtures: a briefly pretrained tiny model and an easy private task
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_task():
    spec = default_task_spec(
        seed=21,
        n_private_train=64,
        n_private_test=64,
        n_public=32,
        n_corpus_sentences=600,
        length_range=(8, 12),
        keyword_density=0.3,
    )
    private, public, corpus = gen_synth_pair(spec)
    corpus_ids = tokenize_corpus(corpus, private.vocab)
    cfg = ModelConfig(
        n_layers=2, d_model=32, n_heads=4, vocab_size=private.vocab.size, max_seq_len=32
    )
    model = init_model(cfg, 1)
    model.set_trainable(True)
    opt = Optimizer(model.parameters(), learning_rate=3e-3)
    rng = np.random.default_rng(0)
    from promptxfer.distill import _length_buckets, sample_length_bucketed_batch
    from promptxfer.model import lm_loss

    buckets = _length_buckets(corpus_ids)
    for _ in range(800):
        ids = sample_length_bucketed_batch(corpus_ids, buckets, 16, rng)
        opt.zero_grad()
        lm_loss(model, ids).backward()
        opt.step()
    model.set_trainable(False)
    return model, private, public


def test_tune_prompt_zero_epochs_is_identity(tiny_task):
    model, private, _ = tiny_task
    prompt = init_prompt(model, length=4, seed=5)
    tuned, history = tune_prompt(model, prompt, private.split("train"), TuneConfig(epochs=0), 0)
    np.testing.assert_array_equal(tuned.matrix, prompt.matrix)
    assert history == []
    assert tuned.source_fingerprint == model.fingerprint()


@pytest.mark.parametrize("dp", [False, True])
def test_eval_every_zero_records_no_history_and_runs_no_scoring_pass(tiny_task, monkeypatch, dp):
    model, private, _ = tiny_task
    train = private.split("train").subset(range(24))
    prompt = init_prompt(model, length=4, seed=8)
    cfg = TuneConfig(epochs=2, learning_rate=1e-2, batch_size=8)
    if dp:
        cfg = replace(cfg, dp=make_dp_params(dataset_size=len(train), batch_size=8, epochs=2, epsilon=8.0))
    with_history, history = tune_prompt(model, prompt, train, cfg, 4)
    assert len(history) == 2
    scored = []
    for name in ("classify_batch", "class_log_probs_batch"):
        monkeypatch.setattr(tuning, name, lambda *a, name=name, **k: scored.append(name))
    tuned, history = tune_prompt(model, prompt, train, replace(cfg, eval_every=0), 4)
    assert history == [] and scored == []
    # the scoring pass draws nothing from the tuning RNG
    np.testing.assert_array_equal(tuned.matrix, with_history.matrix)


def test_eval_every_must_be_nonnegative():
    assert TuneConfig(eval_every=0).eval_every == 0
    with pytest.raises(ValueError, match="eval_every"):
        TuneConfig(eval_every=-1)


def test_tune_prompt_dimension_mismatch(tiny_task):
    model, private, _ = tiny_task
    prompt = init_prompt(model, length=4, seed=5)
    bad = SoftPrompt(
        matrix=np.zeros((4, model.config.d_model + 2), dtype=np.float32),
        init_seed=prompt.init_seed,
        source_fingerprint=prompt.source_fingerprint,
    )
    with pytest.raises(ValueError, match="dimension mismatch"):
        tune_prompt(model, bad, private.split("train"), TuneConfig(epochs=1), 0)


def test_tune_prompt_learns_and_freezes_model(tiny_task):
    model, private, _ = tiny_task
    before = model.fingerprint()
    train = private.split("train")
    prompt = init_prompt(model, length=4, seed=7)

    zs_preds = classify_batch(model, train.sequences, train.verbalizers)
    zs_acc = float(np.mean(zs_preds == train.labels))

    cfg = TuneConfig(epochs=20, learning_rate=1e-2, batch_size=16)
    tuned, history = tune_prompt(model, prompt, train, cfg, 3)
    assert model.fingerprint() == before
    assert history[-1]["train_accuracy"] > 0.9
    assert history[-1]["train_accuracy"] > zs_acc
    assert tuned.dp_meta is None

    # determinism: same seed, same result
    tuned2, _ = tune_prompt(model, prompt, train, cfg, 3)
    np.testing.assert_array_equal(tuned.matrix, tuned2.matrix)


def test_tune_prompt_dp_records_meta_and_respects_budget(tiny_task):
    model, private, _ = tiny_task
    train = private.split("train")
    prompt = init_prompt(model, length=4, seed=9)
    dp = make_dp_params(dataset_size=len(train), batch_size=16, epochs=4, epsilon=8.0)
    tuned, _ = tune_prompt(model, prompt, train, TuneConfig(epochs=4, batch_size=16, dp=dp), 1)
    assert tuned.dp_meta is not None
    spent = rdp_epsilon(dp.noise_multiplier, dp.sample_rate, dp.steps, dp.delta)
    assert tuned.dp_meta.epsilon >= spent
    assert tuned.dp_meta.sigma == dp.noise_multiplier


def test_dp_history_scores_the_set_once_per_row(tiny_task, monkeypatch):
    """Each DP history row takes its loss and its accuracy from one scoring
    pass, and both agree with classify_batch on that row's prompt."""
    model, private, _ = tiny_task
    train = private.split("train")
    score = tuning.class_log_probs_batch
    scored_prompts = []

    def counting_score(model_, sequences, verbalizers, prompt=None):
        scored_prompts.append(prompt.data.copy())
        return score(model_, sequences, verbalizers, prompt)

    def second_pass(*args, **kwargs):
        raise AssertionError("a DP history row scored the tuning set twice")

    monkeypatch.setattr(tuning, "class_log_probs_batch", counting_score)
    monkeypatch.setattr(tuning, "classify_batch", second_pass)
    dp = make_dp_params(dataset_size=len(train), batch_size=16, epochs=3, epsilon=8.0)
    cfg = TuneConfig(epochs=3, batch_size=16, dp=dp)
    _, history = tune_prompt(model, init_prompt(model, length=4, seed=9), train, cfg, 1)

    assert len(history) == len(scored_prompts) == 3
    for row, matrix in zip(history, scored_prompts):
        lp = score(model, train.sequences, train.verbalizers, matrix)
        preds = classify_batch(model, train.sequences, train.verbalizers, prompt=matrix)
        assert row["train_accuracy"] == float(np.mean(preds == train.labels))
        assert row["loss"] == -float(np.mean(lp[np.arange(len(train)), train.labels]))


def test_tune_prompt_rejects_infeasible_budget(tiny_task):
    model, private, _ = tiny_task
    train = private.split("train")
    prompt = init_prompt(model, length=4, seed=9)
    # sigma far too small for the declared budget
    dp = DpParams(
        clip_norm=1.0, noise_multiplier=0.31, sample_rate=0.25, steps=80, epsilon=1.0, delta=1e-4
    )
    with pytest.raises(ValueError, match="infeasible"):
        tune_prompt(model, prompt, train, TuneConfig(epochs=4, batch_size=16, dp=dp), 0)


# ---------------------------------------------------------------------------
# promptdpsgd_step mechanics
# ---------------------------------------------------------------------------


def _one_row_grad(model, dataset, matrix, i):
    """Prompt gradient of example i's class cross-entropy, from a one-row call."""
    pv = Tensor(matrix.copy(), requires_grad=True)
    lp = answer_log_probs(model, [dataset.templated(i)], dataset.verbalizers, pv)
    (-ag.take_along_last(lp, dataset.labels[[i]]).sum()).backward()
    return pv.grad


def test_dpsgd_step_sigma_to_zero_matches_clipped_batch_sum(tiny_task):
    model, private, _ = tiny_task
    train = private.split("train")
    n = len(train)
    dp = DpParams(
        clip_norm=10.0, noise_multiplier=1e-12, sample_rate=0.25, steps=1, epsilon=8.0, delta=1e-4
    )
    pv = Tensor(init_prompt(model, length=4, seed=11).matrix, requires_grad=True)

    # the second index set spans two ROWS_PER_FORWARD chunks
    for idx in ([0, 3, 5, 8], list(range(1, 2 * ROWS_PER_FORWARD, 2)) + [40, 41, 42]):
        per_example = [_one_row_grad(model, train, pv.data, i) for i in idx]
        expected = sum(per_example) / (dp.sample_rate * n)  # all norms << clip bound

        pv2 = Tensor(pv.data.copy(), requires_grad=True)
        opt = Optimizer([pv2], learning_rate=1.0)
        estimate = promptdpsgd_step(
            model, pv2, train, idx, dp, n, np.random.default_rng(0), opt
        )
        np.testing.assert_allclose(estimate, expected, rtol=1e-4, atol=1e-7)
        # the estimate is the optimizer's input: Adam's first step with it
        first_step = estimate.astype(np.float64) / (np.abs(estimate) + EPS)
        np.testing.assert_allclose(pv2.data, pv.data - first_step, rtol=1e-5)


def test_dpsgd_step_clips_each_example(tiny_task):
    model, private, _ = tiny_task
    train = private.split("train")
    n = len(train)
    matrix = init_prompt(model, length=4, seed=11).matrix
    idx = list(range(ROWS_PER_FORWARD + 3))
    per_example = [_one_row_grad(model, train, matrix, i).astype(np.float64).ravel() for i in idx]
    norms = np.linalg.norm(per_example, axis=1)
    c = float(np.median(norms))  # clips about half of the examples
    dp = DpParams(clip_norm=c, noise_multiplier=1e-12, sample_rate=0.25, steps=1, epsilon=8.0, delta=1e-4)
    expected = sum(g * min(1.0, c / norm) for g, norm in zip(per_example, norms)) / (dp.sample_rate * n)

    pv = Tensor(matrix.copy(), requires_grad=True)
    opt = Optimizer([pv], learning_rate=1.0)
    estimate = promptdpsgd_step(model, pv, train, idx, dp, n, np.random.default_rng(0), opt)
    np.testing.assert_allclose(estimate.ravel(), expected, rtol=1e-4, atol=1e-7)


def test_dpsgd_step_noise_std_monte_carlo(tiny_task):
    model, private, _ = tiny_task
    train = private.split("train")
    n = len(train)
    dp = DpParams(
        clip_norm=2.0, noise_multiplier=1.3, sample_rate=0.25, steps=1, epsilon=8.0, delta=1e-4
    )
    rng = np.random.default_rng(42)
    pv = Tensor(np.zeros((2, 4), dtype=np.float32), requires_grad=True)
    opt = Optimizer([pv], learning_rate=1e-30)  # keep params still
    draws = []
    for _ in range(10_000):
        draws.append(promptdpsgd_step(model, pv, train, [], dp, n, rng, opt))
    draws = np.asarray(draws, dtype=np.float64)
    target = dp.noise_multiplier * dp.clip_norm / (dp.sample_rate * n)
    measured = draws.std()
    assert abs(measured - target) / target < 0.05


def test_dpsgd_step_deterministic_per_seed(tiny_task):
    model, private, _ = tiny_task
    train = private.split("train")
    dp = DpParams(
        clip_norm=1.0, noise_multiplier=1.1, sample_rate=0.25, steps=1, epsilon=8.0, delta=1e-4
    )

    def run():
        pv = Tensor(init_prompt(model, length=3, seed=2).matrix, requires_grad=True)
        opt = Optimizer([pv], learning_rate=1e-3)
        promptdpsgd_step(model, pv, train, [1, 2], dp, len(train), np.random.default_rng(7), opt)
        return pv.data.copy()

    np.testing.assert_array_equal(run(), run())


# ---------------------------------------------------------------------------
# DP parameter construction
# ---------------------------------------------------------------------------


def test_default_delta_one_sig_fig():
    assert default_delta(1000) == 1e-4
    assert default_delta(128) == 8e-4
    assert default_delta(67_300) == pytest.approx(1e-6)


def test_make_dp_params_paperlike():
    dp = make_dp_params(dataset_size=1000, batch_size=32, epochs=20, epsilon=8.0, delta=1.5e-5)
    assert dp.sample_rate == pytest.approx(0.032)
    assert dp.steps == 20 * 32
    assert rdp_epsilon(dp.noise_multiplier, dp.sample_rate, dp.steps, dp.delta) <= 8.0
