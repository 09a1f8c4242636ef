import numpy as np
import pytest

from promptxfer.autograd import Tensor, finite_diff_check, precision
from promptxfer.corpus import default_task_spec, gen_synth_pair, tokenize_corpus
from promptxfer.distill import (
    KdConfig,
    KdWeights,
    default_layer_indices,
    distill,
    distill_loss,
    init_student_from_teacher,
    train_lm,
)
from promptxfer.model import ModelConfig, init_model, lm_loss


def teacher_fixture(n_layers=4, vocab=31, d=16):
    cfg = ModelConfig(n_layers=n_layers, d_model=d, n_heads=4, vocab_size=vocab, max_seq_len=24)
    return init_model(cfg, 42)


def test_default_layer_indices_conventions():
    assert default_layer_indices(4, 2) == (0, 3)
    assert default_layer_indices(48, 4) == (0, 1, 46, 47)
    assert default_layer_indices(12, 3) == (0, 1, 11)
    with pytest.raises(ValueError):
        default_layer_indices(2, 3)


def test_student_init_copies_selected_layers_bitwise():
    teacher = teacher_fixture()
    cfg = KdConfig(student_layer_indices=(0, 3))
    student = init_student_from_teacher(teacher, cfg)
    assert student.config.n_layers == 2
    for s_name, t_name in [
        ("layers.0.attn.wq", "layers.0.attn.wq"),
        ("layers.1.attn.wq", "layers.3.attn.wq"),
        ("layers.1.mlp.w2", "layers.3.mlp.w2"),
        ("tok_emb", "tok_emb"),
        ("lm_head", "lm_head"),
    ]:
        np.testing.assert_array_equal(student.params[s_name].data, teacher.params[t_name].data)
    assert student.provenance["layer_indices"] == [0, 3]


def test_student_init_rejects_bad_indices():
    teacher = teacher_fixture()
    with pytest.raises(ValueError):
        init_student_from_teacher(teacher, KdConfig(student_layer_indices=(0, 4)))
    with pytest.raises(ValueError):
        KdConfig(student_layer_indices=(3, 1))


def test_kd_weights_validation():
    with pytest.raises(ValueError):
        KdWeights(alpha_ce=0.0, alpha_lm=0.0, alpha_cos=0.0)
    with pytest.raises(ValueError):
        KdWeights(temperature=0.0)
    w = KdWeights()
    assert (w.alpha_ce, w.alpha_lm, w.alpha_cos) == (5.0, 2.0, 1.0)


def rand_loss_inputs(rng, n_pos=6, vocab=9, d=5):
    t_log = rng.normal(size=(n_pos, vocab))
    s_log = Tensor(rng.normal(size=(n_pos, vocab)), requires_grad=True)
    t_hid = rng.normal(size=(n_pos, d))
    s_hid = Tensor(rng.normal(size=(n_pos, d)), requires_grad=True)
    targets = rng.integers(0, vocab, size=n_pos)
    targets[-1] = -1
    return t_log, s_log, t_hid, s_hid, targets


def test_distill_loss_identity_case():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(5, 8)).astype(np.float32)
    hidden = rng.normal(size=(5, 4)).astype(np.float32)
    targets = np.array([1, 2, 3, 4, -1])
    w = KdWeights()
    total, l_ce, l_lm, l_cos = distill_loss(
        logits, Tensor(logits.copy()), targets, hidden, Tensor(hidden.copy()), w
    )
    assert abs(l_ce.item()) < 1e-6
    assert abs(l_cos.item()) < 1e-6
    assert total.item() == pytest.approx(w.alpha_lm * l_lm.item(), rel=1e-5)


def test_distill_loss_weighted_combination_and_linearity():
    rng = np.random.default_rng(1)
    t_log, s_log, t_hid, s_hid, targets = rand_loss_inputs(rng)
    w = KdWeights(alpha_ce=5.0, alpha_lm=2.0, alpha_cos=1.0)
    total, l_ce, l_lm, l_cos = distill_loss(t_log, s_log, targets, t_hid, s_hid, w)
    assert total.item() == pytest.approx(
        5.0 * l_ce.item() + 2.0 * l_lm.item() + 1.0 * l_cos.item(), rel=1e-6
    )
    # spot arithmetic from the weighted form
    assert 5.0 * 0.1 + 2.0 * 0.5 + 1.0 * 0.2 == pytest.approx(1.7)

    w2 = KdWeights(alpha_ce=10.0, alpha_lm=4.0, alpha_cos=2.0)
    total2, *_ = distill_loss(t_log, s_log, targets, t_hid, s_hid, w2)
    assert total2.item() == pytest.approx(2.0 * total.item(), rel=1e-6)


def test_distill_loss_zero_norm_hidden_contract(caplog):
    rng = np.random.default_rng(2)
    t_log, s_log, t_hid, _, targets = rand_loss_inputs(rng, n_pos=4, d=3)
    s_hid_data = rng.normal(size=(4, 3))
    s_hid_data[1] = 0.0  # zero-norm student row
    with caplog.at_level("WARNING"):
        _, _, _, l_cos = distill_loss(
            t_log, s_log, targets, t_hid, Tensor(s_hid_data, requires_grad=True), KdWeights()
        )
    assert "zero-norm" in caplog.text
    # the bad position contributes exactly distance 1
    good_rows = [0, 2, 3]
    t_hid = np.asarray(t_hid)
    coss = [
        np.dot(t_hid[i], s_hid_data[i])
        / (np.linalg.norm(t_hid[i]) * np.linalg.norm(s_hid_data[i]))
        for i in good_rows
    ]
    expected = (sum(1 - c for c in coss) + 1.0) / 4.0
    assert l_cos.item() == pytest.approx(expected, rel=1e-5)


def test_distill_loss_gradcheck():
    rng = np.random.default_rng(3)
    n_pos, vocab, d = 4, 6, 3
    t_log = rng.normal(size=(n_pos, vocab))
    t_hid = rng.normal(size=(n_pos, d))
    targets = rng.integers(0, vocab, size=n_pos)
    w = KdWeights()

    def f(x):
        from promptxfer import autograd as ag

        flat = x.reshape((n_pos, vocab + d))
        s_log = ag.narrow(flat, 1, 0, vocab)
        s_hid = ag.narrow(flat, 1, vocab, d)
        total, *_ = distill_loss(t_log, s_log, targets, t_hid, s_hid, w)
        return total

    for _ in range(20):
        x = rng.normal(size=(n_pos, vocab + d))
        ok, err = finite_diff_check(f, x, tolerance=1e-6)
        assert ok, err


def test_distill_trains_every_student_parameter_and_loss_falls():
    spec = default_task_spec(seed=7, n_corpus_sentences=300, n_private_train=4, n_private_test=4, n_public=4)
    pri, _, corpus = gen_synth_pair(spec)
    corpus_ids = [seq[:20] for seq in tokenize_corpus(corpus, pri.vocab)]
    teacher2 = init_model(
        ModelConfig(n_layers=4, d_model=16, n_heads=4, vocab_size=pri.vocab.size, max_seq_len=24), 1
    )
    teacher_before = teacher2.fingerprint()
    cfg = KdConfig(student_layer_indices=(0, 3), learning_rate=1e-3, max_steps=200)
    student, history = distill(teacher2, corpus_ids, cfg, seed=5)
    assert [row["step"] for row in history] == list(range(200))
    assert teacher2.fingerprint() == teacher_before
    carved = init_student_from_teacher(teacher2, cfg)
    for name in ("tok_emb", "lm_head"):  # the embedding and the head train too
        assert not np.array_equal(student.params[name].data, carved.params[name].data), name
    assert not any(p.requires_grad for p in student.parameters())
    assert history[-1]["total"] < history[0]["total"]

    # determinism per seed
    student_b, history_b = distill(teacher2, corpus_ids, cfg, seed=5)
    assert student.fingerprint() == student_b.fingerprint()
    assert history == history_b


def test_self_distillation_limit():
    # student with the full teacher architecture and only the KL term: the
    # loss starts at 0 (bitwise copy) and stays ~0
    teacher = teacher_fixture(n_layers=2, vocab=19)
    spec = default_task_spec(seed=9, n_corpus_sentences=60, n_private_train=4, n_private_test=4, n_public=4)
    pri, _, corpus = gen_synth_pair(spec)
    ids = [s[:12] for s in tokenize_corpus(corpus, pri.vocab)]
    teacher = init_model(
        ModelConfig(n_layers=2, d_model=16, n_heads=4, vocab_size=pri.vocab.size, max_seq_len=24), 3
    )
    cfg = KdConfig(
        student_layer_indices=(0, 1),
        weights=KdWeights(alpha_ce=1.0, alpha_lm=0.0, alpha_cos=0.0),
        learning_rate=1e-4,
        max_steps=30,
    )
    _, history = distill(teacher, ids, cfg, seed=0)
    assert history[0]["l_ce"] < 1e-6
    assert history[-1]["l_ce"] < 0.01


def test_train_lm_runs_every_step_and_lowers_the_loss():
    spec = default_task_spec(seed=7, n_corpus_sentences=120, n_private_train=4, n_private_test=4, n_public=4)
    pri, _, corpus = gen_synth_pair(spec)
    corpus_ids = [seq[:20] for seq in tokenize_corpus(corpus, pri.vocab)]
    cfg = ModelConfig(n_layers=2, d_model=16, n_heads=4, vocab_size=pri.vocab.size, max_seq_len=24)
    model = init_model(cfg, 1)
    probe = np.stack([s for s in corpus_ids if len(s) == len(corpus_ids[0])][:8])
    before = lm_loss(model, probe).item()
    history = train_lm(model, corpus_ids, steps=60, batch_size=8, learning_rate=3e-3, seed=4)
    assert [row["step"] for row in history] == list(range(60))
    assert lm_loss(model, probe).item() < before
    assert not any(p.requires_grad for p in model.parameters())

    # determinism per seed
    again = init_model(cfg, 1)
    assert train_lm(again, corpus_ids, steps=60, batch_size=8, learning_rate=3e-3, seed=4) == history
    assert again.fingerprint() == model.fingerprint()
