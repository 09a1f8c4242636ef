import math

import numpy as np
import pytest

from promptxfer.autograd import Tensor, finite_diff_check
from promptxfer.model import ModelConfig, init_model, init_prompt, initial_prompt_matrix
from promptxfer.transfer import (
    HeuristicInputs,
    TransferConfig,
    alpha_heuristic,
    direct_transfer,
    transfer_loss,
    transfer_prompt,
)

RG2, RG3, RG6 = 50.0, 100.0 / 3.0, 100.0 / 6.0


def test_alpha_heuristic_paper_rows():
    assert alpha_heuristic(HeuristicInputs(72.25, 79.10, RG2)) == pytest.approx(0.76, abs=0.005)
    assert alpha_heuristic(HeuristicInputs(36.53, 56.65, RG3)) == pytest.approx(0.14, abs=0.005)
    assert alpha_heuristic(HeuristicInputs(60.78, 80.94, RG2)) == pytest.approx(0.35, abs=0.005)


def test_alpha_heuristic_clamps():
    assert alpha_heuristic(HeuristicInputs(90.0, 80.0, RG2)) == 1.0
    assert alpha_heuristic(HeuristicInputs(50.0, 80.0, RG2)) == 0.0  # ZS == RG
    assert alpha_heuristic(HeuristicInputs(40.0, 80.0, RG2)) == 0.0  # floor


def test_alpha_heuristic_rejects_degenerate():
    with pytest.raises(ValueError):
        HeuristicInputs(70.0, 50.0, 50.0)


def test_transfer_loss_endpoints_and_identity():
    from promptxfer.autograd import precision

    rng = np.random.default_rng(0)
    for _ in range(10):
        tp = Tensor(rng.normal(size=4), requires_grad=True)
        t0 = rng.normal(size=4)
        sp = rng.normal(size=4)
        s0 = rng.normal(size=4)
        total0, l1, l2 = transfer_loss(tp, t0, sp, s0, alpha=0.0)
        assert total0.item() == l1.item()
        total1, l1, l2 = transfer_loss(tp, t0, sp, s0, alpha=1.0)
        assert total1.item() == l2.item()

    # teacher matches student on both raw and delta distributions -> 0
    with precision(np.float64):
        sp, s0 = rng.normal(size=5), rng.normal(size=5)
        tp = Tensor(sp.copy(), requires_grad=True)
        total, l1, l2 = transfer_loss(tp, s0.copy(), sp, s0, alpha=0.3)
    assert total.item() == 0.0 and l1.item() == 0.0 and l2.item() == 0.0


def test_transfer_loss_hand_built_two_class_case():
    from promptxfer.autograd import precision

    # student prompted [0.25, 0.75]; teacher prompted [0.5, 0.5];
    # identical deltas on both sides; alpha = 0.5
    with precision(np.float64):
        sp = np.log([0.25, 0.75])
        tp = Tensor(np.array([0.0, 0.0]), requires_grad=True)
        s0 = sp - np.array([0.3, -0.1])
        t0 = tp.data - np.array([0.3, -0.1])
        total, l1, l2 = transfer_loss(tp, t0, sp, s0, alpha=0.5)
    expected_l1 = 0.25 * math.log(0.25 / 0.5) + 0.75 * math.log(0.75 / 0.5)
    assert l2.item() == pytest.approx(0.0, abs=1e-12)
    assert total.item() == pytest.approx(0.5 * expected_l1, rel=1e-9)


def test_transfer_loss_kl_nonnegative_random():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        n = int(rng.integers(2, 8))
        total, l1, l2 = transfer_loss(
            Tensor(rng.normal(size=n) * 2, requires_grad=True),
            rng.normal(size=n) * 2,
            rng.normal(size=n) * 2,
            rng.normal(size=n) * 2,
            alpha=float(rng.uniform(0, 1)),
        )
        assert l1.item() >= 0 and l2.item() >= 0 and total.item() >= 0


def test_transfer_loss_gradient_only_into_teacher_prompted():
    rng = np.random.default_rng(2)
    tp = Tensor(rng.normal(size=4), requires_grad=True)
    t0 = Tensor(rng.normal(size=4), requires_grad=True)
    total, _, _ = transfer_loss(tp, t0, rng.normal(size=4), rng.normal(size=4), alpha=0.4)
    total.backward()
    assert tp.grad is not None and np.any(tp.grad != 0)
    assert t0.grad is None


def test_transfer_loss_gradcheck():
    rng = np.random.default_rng(3)
    t0 = rng.normal(size=5)
    sp = rng.normal(size=5)
    s0 = rng.normal(size=5)

    def f(x):
        total, _, _ = transfer_loss(x, t0, sp, s0, alpha=0.35)
        return total

    for _ in range(20):
        ok, err = finite_diff_check(f, rng.normal(size=5), tolerance=1e-6)
        assert ok, err


def test_transfer_loss_rows_equal_sum_of_single_rows():
    from promptxfer.autograd import precision

    rng = np.random.default_rng(4)
    tp, t0, sp, s0 = (rng.normal(size=(5, 3)) for _ in range(4))
    with precision(np.float64):
        x = Tensor(tp, requires_grad=True)
        rows = transfer_loss(x, t0, sp, s0, alpha=0.3)
        rows[0].backward()
        for k in range(3):
            singles = [transfer_loss(Tensor(tp[r]), t0[r], sp[r], s0[r], alpha=0.3)[k].item() for r in range(5)]
            assert rows[k].item() == pytest.approx(sum(singles), rel=1e-12)
        for r in range(5):
            one = Tensor(tp[r], requires_grad=True)
            transfer_loss(one, t0[r], sp[r], s0[r], alpha=0.3)[0].backward()
            np.testing.assert_allclose(x.grad[r], one.grad, rtol=1e-12, atol=1e-15)


def test_transfer_loss_rejects_nonfinite():
    tp = Tensor(np.array([0.0, 1.0]), requires_grad=True)
    with pytest.raises(ValueError):
        transfer_loss(tp, np.array([np.nan, 0.0]), np.zeros(2), np.zeros(2), alpha=0.5)


# -- transfer_prompt mechanics ------------------------------------------------


@pytest.fixture(scope="module")
def model_pair():
    from promptxfer.corpus import default_task_spec, gen_synth_pair

    spec = default_task_spec(seed=33, n_private_train=16, n_private_test=16, n_public=24)
    private, public, _ = gen_synth_pair(spec)
    vocab = private.vocab.size
    teacher = init_model(ModelConfig(n_layers=2, d_model=16, n_heads=4, vocab_size=vocab, max_seq_len=32), 0)
    student = init_model(ModelConfig(n_layers=1, d_model=16, n_heads=4, vocab_size=vocab, max_seq_len=32), 1)
    return teacher, student, public


def test_transfer_zero_steps_returns_regenerated_init(model_pair):
    teacher, student, public = model_pair
    p_s = init_prompt(student, length=3, seed=17)
    p_s.matrix += 0.25  # pretend it was tuned away from init
    cfg = TransferConfig(alpha=0.5, steps=0, seed=0)
    p_t, history = transfer_prompt(teacher, student, p_s, public, cfg)
    expected = initial_prompt_matrix(16, 3, 17)
    np.testing.assert_array_equal(p_t.matrix, expected)
    assert history == []
    assert p_t.source_fingerprint == teacher.fingerprint()


def test_transfer_runs_exact_steps_and_freezes_models(model_pair):
    teacher, student, public = model_pair
    tf_before, sf_before = teacher.fingerprint(), student.fingerprint()
    p_s = init_prompt(student, length=3, seed=4)
    p_s.matrix += 1.5  # a strongly skewed source prompt gives the loss signal
    cfg = TransferConfig(alpha=0.4, steps=25, batch_size=8, learning_rate=3e-3, seed=5)
    p_t, history = transfer_prompt(teacher, student, p_s, public, cfg)
    assert len(history) == 25
    assert teacher.fingerprint() == tf_before
    assert student.fingerprint() == sf_before
    assert np.mean([h["total"] for h in history[-5:]]) < history[0]["total"]

    p_t2, history2 = transfer_prompt(teacher, student, p_s, public, cfg)
    np.testing.assert_array_equal(p_t.matrix, p_t2.matrix)
    assert history == history2


def test_transfer_step_frees_each_chunk_graph(model_pair):
    # Every forward of a step must start from the same live-tensor count: a
    # chunk's graph is freed before the next chunk's forward.
    import gc

    from promptxfer.model import ROWS_PER_FORWARD, TransformerLM

    teacher, student, public = model_pair
    p_s = init_prompt(student, length=3, seed=4)
    batch = min(len(public), 2 * ROWS_PER_FORWARD)
    assert batch > ROWS_PER_FORWARD
    cfg = TransferConfig(alpha=0.4, steps=2, batch_size=batch, seed=5)
    live = []
    forward = TransformerLM._forward_batch

    def counting(model, *args, **kwargs):
        # the transfer runs on a float64 copy of the teacher, not on `teacher`
        if model.config == teacher.config:
            live.append(sum(isinstance(o, Tensor) for o in gc.get_objects()))
        return forward(model, *args, **kwargs)

    was_enabled = gc.isenabled()
    gc.disable()
    TransformerLM._forward_batch = counting
    try:
        transfer_prompt(teacher, student, p_s, public, cfg)
    finally:
        TransformerLM._forward_batch = forward
        if was_enabled:
            gc.enable()
    per_step = -(-batch // ROWS_PER_FORWARD)
    in_steps = live[-2 * per_step :]
    assert len(in_steps) == 2 * per_step and len(set(in_steps)) == 1, live


def test_transfer_objective_is_float64_on_float32_models(model_pair):
    # the shift term compares differences of near-equal log-probabilities,
    # so the logged objective must match a float64 recomputation far below
    # float32 rounding
    from promptxfer.autograd import precision
    from promptxfer.model import TransformerLM, class_log_probs_batch

    teacher, student, public = model_pair
    before = {m: {k: p.data.copy() for k, p in m.params.items()} for m in (teacher, student)}
    p_s = init_prompt(student, length=3, seed=4)
    p_s.matrix += 1.5
    cfg = TransferConfig(alpha=0.4, steps=2, batch_size=len(public), seed=5)  # every step sees the whole set
    p_t, history = transfer_prompt(teacher, student, p_s, public, cfg)

    for model, params in before.items():
        for k, p in model.params.items():
            assert p.data.dtype == np.float32
            assert p.data.tobytes() == params[k].tobytes(), k
    assert p_t.matrix.dtype == np.float32
    assert p_t.source_fingerprint == teacher.fingerprint()

    start = initial_prompt_matrix(16, 3, 4)
    verbs, seqs = public.verbalizers, public.sequences
    with precision(np.float64):
        teacher64, student64 = (
            TransformerLM(m.config, {k: Tensor(p.data) for k, p in m.params.items()}) for m in (teacher, student)
        )
        total, _, _ = transfer_loss(
            Tensor(class_log_probs_batch(teacher64, seqs, verbs, prompt=start)),
            class_log_probs_batch(teacher64, seqs, verbs),
            class_log_probs_batch(student64, seqs, verbs, prompt=p_s.matrix),
            class_log_probs_batch(student64, seqs, verbs),
            alpha=0.4,
        )
    assert history[0]["total"] == pytest.approx(total.item() / len(public), rel=1e-9, abs=0)


def test_transfer_carries_dp_meta_unchanged(model_pair):
    from promptxfer.model import DpMeta

    teacher, student, public = model_pair
    p_s = init_prompt(student, length=3, seed=4)
    p_s.dp_meta = DpMeta(epsilon=8.0, delta=1e-4, sigma=1.1, clip_norm=1.0)
    cfg = TransferConfig(alpha=0.4, steps=2, batch_size=8, seed=5)
    p_t, _ = transfer_prompt(teacher, student, p_s, public, cfg)
    assert p_t.dp_meta == p_s.dp_meta

    direct = direct_transfer(p_s, teacher)
    assert direct.dp_meta == p_s.dp_meta


def test_transfer_rejects_bad_inputs(model_pair):
    teacher, student, public = model_pair
    p_s = init_prompt(student, length=3, seed=4)
    with pytest.raises(ValueError, match="empty"):
        transfer_prompt(teacher, student, p_s, public.subset([]), TransferConfig(steps=1))
    wide = init_model(ModelConfig(n_layers=1, d_model=32, n_heads=4, vocab_size=16, max_seq_len=16), 2)
    with pytest.raises(ValueError, match="dimension mismatch"):
        transfer_prompt(teacher, wide, p_s, public, TransferConfig(steps=1))


def test_direct_transfer_is_bitwise_rebadge(model_pair):
    teacher, student, _ = model_pair
    p_s = init_prompt(student, length=3, seed=8)
    p_s.matrix += 1.0
    moved = direct_transfer(p_s, teacher)
    np.testing.assert_array_equal(moved.matrix, p_s.matrix)
    assert moved.source_fingerprint == teacher.fingerprint()
    with pytest.raises(ValueError):
        wide = init_model(ModelConfig(n_layers=1, d_model=32, n_heads=4, vocab_size=16, max_seq_len=16), 2)
        direct_transfer(p_s, wide)


def test_transfer_config_validation():
    with pytest.raises(ValueError):
        TransferConfig(alpha=1.5)
    with pytest.raises(ValueError):
        TransferConfig(steps=-1)
    with pytest.raises(ValueError):
        TransferConfig(batch_size=0)
