import math
from dataclasses import replace

import numpy as np
import pytest

from gradcheck import finite_diff_check
from promptxfer.autograd import Tensor
from promptxfer.model import ModelConfig, init_model, init_prompt, initial_prompt_matrix
from promptxfer.transfer import TransferConfig, _float64_copy, heuristic_alpha, transfer_loss, transfer_prompt

RG2, RG3 = 1.0 / 2.0, 1.0 / 3.0


def test_alpha_heuristic_paper_rows():
    assert heuristic_alpha(0.7225, 0.7910, RG2) == pytest.approx(0.76, abs=0.005)
    assert heuristic_alpha(0.3653, 0.5665, RG3) == pytest.approx(0.14, abs=0.005)
    assert heuristic_alpha(0.6078, 0.8094, RG2) == pytest.approx(0.35, abs=0.005)


def test_alpha_heuristic_clamps():
    assert heuristic_alpha(0.90, 0.80, RG2) == 1.0
    assert heuristic_alpha(0.50, 0.80, RG2) == 0.0  # ZS == RG
    assert heuristic_alpha(0.40, 0.80, RG2) == 0.0  # floor


def test_alpha_heuristic_falls_back_where_undefined(caplog):
    with caplog.at_level("WARNING", logger="promptxfer.transfer"):
        assert heuristic_alpha(0.70, 0.50, RG2) == 0.5
    assert "falling back to 0.5" in caplog.text


def test_transfer_loss_endpoints_and_identity():
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
    sp, s0 = rng.normal(size=5), rng.normal(size=5)
    tp = Tensor(sp.copy(), requires_grad=True, dtype=np.float64)
    total, l1, l2 = transfer_loss(tp, s0.copy(), sp, s0, alpha=0.3)
    assert total.item() == 0.0 and l1.item() == 0.0 and l2.item() == 0.0


def test_transfer_loss_hand_built_two_class_case():
    # student prompted [0.25, 0.75]; teacher prompted [0.5, 0.5];
    # identical deltas on both sides; alpha = 0.5
    sp = np.log([0.25, 0.75])
    tp = Tensor(np.array([0.0, 0.0]), requires_grad=True, dtype=np.float64)
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
    t0, sp, s0 = (rng.normal(size=4) for _ in range(3))
    total, _, _ = transfer_loss(tp, t0, sp, s0, alpha=0.4)
    total.backward()
    assert tp.grad is not None and np.any(tp.grad != 0)
    # the other sides are constant arrays; a tensor there is refused
    with pytest.raises(TypeError):
        transfer_loss(tp, Tensor(t0, requires_grad=True), sp, s0, alpha=0.4)


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
    rng = np.random.default_rng(4)
    tp, t0, sp, s0 = (rng.normal(size=(5, 3)) for _ in range(4))
    x = Tensor(tp, requires_grad=True, dtype=np.float64)
    rows = transfer_loss(x, t0, sp, s0, alpha=0.3)
    rows[0].backward()
    for k in range(3):
        singles = [
            transfer_loss(Tensor(tp[r], dtype=np.float64), t0[r], sp[r], s0[r], alpha=0.3)[k].item() for r in range(5)
        ]
        assert rows[k].item() == pytest.approx(sum(singles), rel=1e-12)
    for r in range(5):
        one = Tensor(tp[r], requires_grad=True, dtype=np.float64)
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
    cfg = TransferConfig(steps=0)
    p_t, history, alpha = transfer_prompt(teacher, student, p_s, public, cfg, 0.5, 0)
    expected = initial_prompt_matrix(16, 3, 17)
    np.testing.assert_array_equal(p_t.matrix, expected)
    assert history == [] and alpha == 0.5
    assert p_t.source_fingerprint == teacher.fingerprint()


def test_transfer_runs_exact_steps_and_freezes_models(model_pair):
    teacher, student, public = model_pair
    tf_before, sf_before = teacher.fingerprint(), student.fingerprint()
    p_s = init_prompt(student, length=3, seed=4)
    p_s.matrix += 1.5  # a strongly skewed source prompt gives the loss signal
    cfg = TransferConfig(steps=25, batch_size=8, learning_rate=3e-3)
    p_t, history, _ = transfer_prompt(teacher, student, p_s, public, cfg, 0.4, 5)
    assert len(history) == 25
    assert teacher.fingerprint() == tf_before
    assert student.fingerprint() == sf_before
    assert np.mean([h["total"] for h in history[-5:]]) < history[0]["total"]

    p_t2, history2, _ = transfer_prompt(teacher, student, p_s, public, cfg, 0.4, 5)
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
    cfg = TransferConfig(steps=2, batch_size=batch)
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
        transfer_prompt(teacher, student, p_s, public, cfg, 0.4, 5)
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
    from promptxfer.model import class_log_probs_batch

    teacher, student, public = model_pair
    before = {m: {k: p.data.copy() for k, p in m.params.items()} for m in (teacher, student)}
    p_s = init_prompt(student, length=3, seed=4)
    p_s.matrix += 1.5
    cfg = TransferConfig(steps=2, batch_size=len(public))  # every step sees the whole set
    p_t, history, _ = transfer_prompt(teacher, student, p_s, public, cfg, 0.4, 5)

    for model, params in before.items():
        for k, p in model.params.items():
            assert p.data.dtype == np.float32
            assert p.data.tobytes() == params[k].tobytes(), k
    assert p_t.matrix.dtype == np.float32
    assert p_t.source_fingerprint == teacher.fingerprint()

    start = initial_prompt_matrix(16, 3, 4)
    verbs, seqs = public.verbalizers, public.sequences
    teacher64, student64 = _float64_copy(teacher), _float64_copy(student)
    total, _, _ = transfer_loss(
        Tensor(class_log_probs_batch(teacher64, seqs, verbs, prompt=start), dtype=np.float64),
        class_log_probs_batch(teacher64, seqs, verbs),
        class_log_probs_batch(student64, seqs, verbs, prompt=p_s.matrix),
        class_log_probs_batch(student64, seqs, verbs),
        alpha=0.4,
    )
    assert history[0]["total"] == pytest.approx(total.item() / len(public), rel=1e-9, abs=0)


def test_a_float64_transfer_leaves_other_threads_float32(model_pair, monkeypatch):
    """Precision belongs to the data, not to the process: while a transfer
    computes in float64 in one thread, a tensor built in another is float32."""
    import threading

    from promptxfer import transfer

    teacher, student, public = model_pair
    p_s = init_prompt(student, length=3, seed=4)
    inside, checked = threading.Event(), threading.Event()
    out_dtypes, done = [], []
    forward = transfer.answer_log_probs

    def pausing(model, sequences, verbalizers, prompt):
        # holds the transfer after its prompted forward until this thread has looked
        out = forward(model, sequences, verbalizers, prompt)
        out_dtypes.append(out.data.dtype)
        inside.set()
        checked.wait(timeout=60)
        return out

    def run():
        transfer_prompt(teacher, student, p_s, public, TransferConfig(steps=1, batch_size=8), 0.4, 5)
        done.append(True)

    monkeypatch.setattr(transfer, "answer_log_probs", pausing)
    worker = threading.Thread(target=run)
    worker.start()
    try:
        assert inside.wait(timeout=60)
        here = Tensor([1.0]).data.dtype
    finally:
        checked.set()
        worker.join(timeout=120)
    assert not worker.is_alive() and done and out_dtypes[0] == np.float64
    assert here == np.float32


def test_a_steps_float32_prompt_gradient_matches_a_float64_leaf(model_pair, monkeypatch):
    """The transfer's prompt is a float32 leaf behind a float64 forward: the
    gradient its step reads is float32, and agrees with the gradient a
    float64 leaf gets from the same rows (measured: 2.0e-7 relative)."""
    from promptxfer import transfer
    from promptxfer.model import class_log_probs_batch, row_chunks

    teacher, student, public = model_pair
    p_s = init_prompt(student, length=3, seed=4)
    p_s.matrix += 1.5
    grads = []

    class Recording(transfer.Optimizer):
        def step(self):
            grads.append(self.params[0].grad.copy())
            super().step()

    monkeypatch.setattr(transfer, "Optimizer", Recording)
    n = len(public)
    transfer_prompt(teacher, student, p_s, public, TransferConfig(steps=1, batch_size=n), 0.4, 5)
    assert len(grads) == 1 and grads[0].dtype == np.float32

    teacher64, student64 = _float64_copy(teacher), _float64_copy(student)
    seqs, verbs = public.sequences, public.verbalizers
    sides = (
        class_log_probs_batch(student64, seqs, verbs, prompt=p_s.matrix),
        class_log_probs_batch(student64, seqs, verbs),
        class_log_probs_batch(teacher64, seqs, verbs),
    )
    leaf = Tensor(initial_prompt_matrix(16, 3, 4), requires_grad=True, dtype=np.float64)
    rows = np.arange(n)
    for pos in row_chunks([len(s) for s in seqs]):
        transfer._transfer_chunk_backward(teacher64, leaf, seqs, rows[pos], sides, 0.4, verbs, 1.0 / n)
    rel = np.linalg.norm(grads[0] - leaf.grad) / np.linalg.norm(leaf.grad)
    assert rel < 2e-6, rel


def test_transfer_carries_dp_meta_unchanged(model_pair):
    from promptxfer.model import DpMeta

    teacher, student, public = model_pair
    p_s = init_prompt(student, length=3, seed=4)
    p_s.dp_meta = DpMeta(epsilon=8.0, delta=1e-4, sigma=1.1, clip_norm=1.0)
    cfg = TransferConfig(steps=2, batch_size=8)
    p_t, _, _ = transfer_prompt(teacher, student, p_s, public, cfg, 0.4, 5)
    assert p_t.dp_meta == p_s.dp_meta


def _public_sides(teacher, student, p_s, public):
    """The float64 argmax of the prompted student and of the plain teacher
    on `public`, as the transfer computes its constant sides."""
    from promptxfer.model import class_log_probs_batch

    teacher64, student64 = _float64_copy(teacher), _float64_copy(student)
    seqs, verbs = public.sequences, public.verbalizers
    compressed = np.argmax(class_log_probs_batch(student64, seqs, verbs, prompt=p_s.matrix), axis=1)
    zero_shot = np.argmax(class_log_probs_batch(teacher64, seqs, verbs), axis=1)
    return compressed, zero_shot


def test_heuristic_alpha_comes_from_the_public_sides(model_pair):
    teacher, student, public = model_pair
    p_s = init_prompt(student, length=3, seed=4)
    p_s.matrix += 1.5
    compressed, zero_shot = _public_sides(teacher, student, p_s, public)
    # labels that put the prompted student at 3/4 and the teacher wherever it falls
    labels = np.where(np.arange(len(public)) % 4 == 3, (compressed + 1) % public.n_classes, compressed)
    relabelled = replace(public, labels=labels)
    cfg = TransferConfig(steps=1, batch_size=8)
    _, _, alpha = transfer_prompt(teacher, student, p_s, relabelled, cfg, None, 5)
    expected = heuristic_alpha(float(np.mean(zero_shot == labels)), 0.75, 1.0 / public.n_classes)
    assert alpha == expected
    # a fixed alpha is used as it is
    assert transfer_prompt(teacher, student, p_s, relabelled, cfg, 0.3, 5)[2] == 0.3


def test_heuristic_alpha_falls_back_to_one_half_at_chance(model_pair, caplog):
    """A prompted student at exactly 1/C on the public rows leaves the
    heuristic undefined: the transfer logs it and runs with alpha 0.5."""
    teacher, student, public = model_pair
    assert public.n_classes == 2
    p_s = init_prompt(student, length=3, seed=4)
    compressed, _ = _public_sides(teacher, student, p_s, public)
    labels = np.where(np.arange(len(public)) % 2 == 0, compressed, (compressed + 1) % 2)
    cfg = TransferConfig(steps=2, batch_size=8)
    with caplog.at_level("WARNING", logger="promptxfer.transfer"):
        p_t, history, alpha = transfer_prompt(teacher, student, p_s, replace(public, labels=labels), cfg, None, 5)
    assert alpha == 0.5
    assert "falling back to 0.5" in caplog.text
    fixed, fixed_history, _ = transfer_prompt(teacher, student, p_s, public, cfg, 0.5, 5)
    np.testing.assert_array_equal(p_t.matrix, fixed.matrix)
    assert history == fixed_history


def test_transfer_rejects_bad_inputs(model_pair):
    teacher, student, public = model_pair
    p_s = init_prompt(student, length=3, seed=4)
    with pytest.raises(ValueError, match="empty"):
        transfer_prompt(teacher, student, p_s, public.subset([]), TransferConfig(steps=1), 0.5, 0)
    wide = init_model(ModelConfig(n_layers=1, d_model=32, n_heads=4, vocab_size=16, max_seq_len=16), 2)
    with pytest.raises(ValueError, match="dimension mismatch"):
        transfer_prompt(teacher, wide, p_s, public, TransferConfig(steps=1), 0.5, 0)


def test_transfer_config_validation(model_pair):
    teacher, student, public = model_pair
    p_s = init_prompt(student, length=3, seed=4)
    for alpha in (-0.1, 1.5):
        with pytest.raises(ValueError, match="alpha"):
            transfer_prompt(teacher, student, p_s, public, TransferConfig(steps=1), alpha, 0)
    with pytest.raises(ValueError):
        TransferConfig(steps=-1)
    with pytest.raises(ValueError):
        TransferConfig(batch_size=0)
