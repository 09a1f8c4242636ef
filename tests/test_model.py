import math

import numpy as np
import pytest
from scipy import special

from promptxfer import autograd as ag
from promptxfer.autograd import Tensor, finite_diff_check, precision
from promptxfer.model import (
    ROWS_PER_FORWARD,
    ModelConfig,
    SoftPrompt,
    TransformerLM,
    answer_log_probs,
    class_log_probs_batch,
    classify_batch,
    init_model,
    init_prompt,
    initial_prompt_matrix,
    label_set_log_probability,
    lm_loss,
)
from promptxfer.optim import Optimizer


def small_config(**kw):
    base = dict(n_layers=2, d_model=16, n_heads=4, vocab_size=29, max_seq_len=32)
    base.update(kw)
    return ModelConfig(**base)


# one class per token of small_config's vocabulary: the class distribution is
# then the whole next-token distribution
EVERY_TOKEN = [[t] for t in range(29)]


def class_probs(logits, verbalizers) -> np.ndarray:
    return np.exp(label_set_log_probability(logits, verbalizers).data)


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(d_model=10, n_heads=4)
    with pytest.raises(ValueError):
        small_config(n_layers=0)


def test_init_determinism_and_seed_sensitivity():
    cfg = small_config()
    a, b = init_model(cfg, 7), init_model(cfg, 7)
    assert a.fingerprint() == b.fingerprint()
    c = init_model(cfg, 8)
    assert a.fingerprint() != c.fingerprint()


def test_fingerprint_changes_with_any_parameter():
    model = init_model(small_config(), 0)
    before = model.fingerprint()
    model.params["layers.1.mlp.w2_b"].data[3] += 1e-4
    assert model.fingerprint() != before


def test_parameter_count_closed_form():
    cfg = ModelConfig(n_layers=2, d_model=64, n_heads=4, vocab_size=256, max_seq_len=48)
    model = init_model(cfg, 0)
    d, v = cfg.d_model, cfg.vocab_size
    per_layer = (4 * d * d + 4 * d) + (8 * d * d + 5 * d) + 4 * d  # attn + mlp + two norms
    expected = v * d + cfg.max_seq_len * d + cfg.n_layers * per_layer + 2 * d + d * v
    assert sum(p.data.size for p in model.parameters()) == expected


def test_forward_shapes_with_and_without_prompt():
    cfg = small_config()
    model = init_model(cfg, 1)
    ids = np.array([1, 2, 3, 4, 5])
    out = model.forward(ids)
    assert out.shape == (5, cfg.vocab_size)

    prompt = init_prompt(model, length=3, seed=0)
    out2 = model.forward(ids, prompt=prompt)
    assert out2.shape == (8, cfg.vocab_size)

    for l in (1, 2, 6):
        p = init_prompt(model, length=l, seed=l)
        for n in (1, 4):
            assert model.forward(ids[:n], prompt=p).shape == (l + n, cfg.vocab_size)


def test_zero_prompt_differs_from_no_prompt():
    model = init_model(small_config(), 2)
    ids = np.array([3, 1, 4, 1, 5])
    plain = model.forward(ids).data[-1]
    zero = SoftPrompt(
        matrix=np.zeros((1, model.config.d_model), dtype=np.float32),
        init_seed=0,
        source_fingerprint=model.fingerprint(),
    )
    shifted = model.forward(ids, prompt=zero).data[-1]
    assert not np.allclose(plain, shifted)


def test_forward_rejects_mismatched_prompt():
    model = init_model(small_config(), 3)
    bad = np.zeros((2, model.config.d_model + 1), dtype=np.float32)
    with pytest.raises(ValueError, match="prompt/model dimension mismatch"):
        model.forward(np.array([1, 2]), prompt=bad)


def test_forward_rejects_too_long_and_bad_ids():
    cfg = small_config(max_seq_len=6)
    model = init_model(cfg, 0)
    with pytest.raises(ValueError):
        model.forward(np.arange(7) % cfg.vocab_size)
    with pytest.raises(ValueError):
        model.forward(np.array([cfg.vocab_size]))


def test_lm_loss_near_uniform_for_random_model():
    cfg = small_config(vocab_size=50)
    model = init_model(cfg, 4)
    rng = np.random.default_rng(0)
    losses = [
        lm_loss(model, rng.integers(0, cfg.vocab_size, size=12)).item() for _ in range(20)
    ]
    assert abs(np.mean(losses) - math.log(cfg.vocab_size)) < 0.1 * math.log(cfg.vocab_size)


def test_lm_loss_rejects_single_token():
    model = init_model(small_config(), 0)
    with pytest.raises(ValueError):
        lm_loss(model, np.array([1]))


def test_lm_loss_overfits_single_token_corpus():
    cfg = small_config(vocab_size=11)
    model = init_model(cfg, 5)
    model.set_trainable(True)
    opt = Optimizer(model.parameters(), learning_rate=3e-3)
    seq = np.full(8, 7)
    history = []
    for _ in range(100):
        opt.zero_grad()
        loss = lm_loss(model, seq)
        loss.backward()
        opt.step()
        history.append(loss.item())
    assert np.mean(history[-10:]) < np.mean(history[:10])
    assert history[-1] < 0.1


def test_prompt_changes_answer_log_probs():
    model = init_model(small_config(), 6)
    seqs = [np.array([1, 2, 3, 4]), np.array([5, 6])]
    zero = np.zeros((2, model.config.d_model), dtype=np.float32)
    plain = answer_log_probs(model, seqs, EVERY_TOKEN).data
    prompted = answer_log_probs(model, seqs, EVERY_TOKEN, zero).data
    assert not np.allclose(plain, prompted)


def test_prompt_tuning_gradient_isolation():
    model = init_model(small_config(), 7)
    model.set_trainable(False)
    before = model.fingerprint()
    pvar = Tensor(initial_prompt_matrix(model.config.d_model, 3, 0), requires_grad=True)
    seqs = [np.array([1, 2, 3]), np.array([4, 5, 6, 7, 8])]
    loss = -answer_log_probs(model, seqs, [[2], [9]], pvar).sum()
    loss.backward()
    assert pvar.grad is not None and np.any(pvar.grad != 0)
    opt = Optimizer([pvar], learning_rate=0.1)
    opt.step()
    assert model.fingerprint() == before


def test_label_set_probability_examples():
    # two classes, single token each, base probs 0.2 and 0.6 -> [0.25, 0.75]
    probs = np.array([0.2, 0.6, 0.2])
    logits = np.log(probs)
    out = class_probs(logits, [[0], [1]])
    np.testing.assert_allclose(out, [0.25, 0.75], rtol=1e-6)

    # uniform logits, equal-size sets -> uniform classes
    out = class_probs(np.zeros(6), [[0, 1], [2, 3]])
    np.testing.assert_allclose(out, [0.5, 0.5], rtol=1e-6)

    # average-then-renormalize with unequal sets
    probs = np.array([0.1, 0.3, 0.2, 0.4])
    out = class_probs(np.log(probs), [[0, 1], [2]])
    np.testing.assert_allclose(out, [0.5, 0.5], rtol=1e-6)


def test_label_set_probability_rejects_overlap_and_empty():
    with pytest.raises(ValueError):
        class_probs(np.zeros(4), [[0, 1], [1, 2]])
    with pytest.raises(ValueError):
        class_probs(np.zeros(4), [[0], []])


def test_classify_shift_invariance_and_rigged_head():
    logits = np.random.default_rng(1).normal(size=9)
    verbs = [[0, 1], [4], [6, 7]]
    base = class_probs(logits, verbs)
    shifted = class_probs(logits + 5.0, verbs)
    np.testing.assert_allclose(base, shifted, atol=1e-6)
    assert np.argmax(base) == np.argmax(shifted)

    model = init_model(small_config(), 8)
    # rig the LM head so token 4 (class 1) dominates at the answer position
    ids = np.array([1, 2, 3])
    _, hidden = model.forward(ids, return_hidden=True)
    h = hidden.data[-1]
    model.params["lm_head"].data[:, 4] = (100.0 * h / np.dot(h, h)).astype(np.float32)
    dist = class_probs(model.forward(ids).data[-1], [[3], [4]])
    assert np.argmax(dist) == 1 and dist[1] > 0.99

    # symmetric rigging: tie broken toward the lowest class id
    dist = class_probs(np.zeros(4), [[0], [1]])
    assert np.argmax(dist) == 0


def test_random_model_near_chance_on_balanced_set():
    cfg = small_config(vocab_size=40)
    model = init_model(cfg, 9)
    rng = np.random.default_rng(2)
    seqs = [rng.integers(0, cfg.vocab_size, size=10) for _ in range(500)]
    labels = np.array([i % 2 for i in range(500)])
    preds = classify_batch(model, seqs, [[4], [5]])
    acc = float(np.mean(preds == labels))
    assert 0.4 <= acc <= 0.6


def test_classify_batch_matches_single():
    cfg = small_config()
    model = init_model(cfg, 10)
    rng = np.random.default_rng(3)
    seqs = [rng.integers(0, cfg.vocab_size, size=rng.integers(4, 9)) for _ in range(20)]
    verbs = [[2], [3]]
    prompt = init_prompt(model, length=2, seed=1)
    batched = classify_batch(model, seqs, verbs, prompt=prompt)
    singles = np.array(
        [np.argmax(class_probs(model.forward(s, prompt=prompt).data[-1], verbs)) for s in seqs]
    )
    np.testing.assert_array_equal(batched, singles)


@pytest.mark.parametrize("with_prompt", [False, True, "per_row"])
@pytest.mark.parametrize("verbs", [[[2, 7], [3]], EVERY_TOKEN], ids=["classes", "full_vocab"])
def test_answer_log_probs_ragged_batch_matches_rows_alone(with_prompt, verbs):
    # with one layer, the block whose attention and MLP run at the answer
    # positions only is also the first
    for n_layers in (2, 1):
        cfg = small_config(n_layers=n_layers)
        model = init_model(cfg, 13)
        rng = np.random.default_rng(5)
        seqs = [rng.integers(0, cfg.vocab_size, size=n) for n in (3, 9, 1, 6, 9, 4)]
        # one prompt for every row, or an [n x l x d] prompt with one per row
        own = [init_prompt(model, length=3, seed=2 + r).matrix for r in range(len(seqs))]
        prompt = {False: None, True: own[0], "per_row": np.stack(own)}[with_prompt]
        got = answer_log_probs(model, seqs, verbs, prompt).data
        for r, (row, seq) in enumerate(zip(got, seqs)):
            last = model.forward(seq, prompt=own[r] if with_prompt == "per_row" else prompt).data[-1]
            alone = label_set_log_probability(last, verbs)
            np.testing.assert_allclose(row, alone.data, rtol=0, atol=1e-5)
        # a row's bits do not depend on its neighbours: the rows in order of
        # length, as `class_log_probs_batch` runs them, give the same bits
        if with_prompt == "per_row":
            order = np.argsort([len(s) for s in seqs], kind="stable")
            sorted_rows = answer_log_probs(model, [seqs[i] for i in order], verbs, prompt[order]).data
            np.testing.assert_array_equal(sorted_rows, got[order])
        else:
            np.testing.assert_array_equal(class_log_probs_batch(model, seqs, verbs, prompt=prompt), got)


def _numpy_forward(model, ids, prompt=None):
    """Logits of one row from the checkpoint's arrays alone, in float64."""
    cfg = model.config
    p = {name: t.data.astype(np.float64) for name, t in model.params.items()}
    d, nh = cfg.d_model, cfg.n_heads
    dh = d // nh

    def ln(x, name):
        mu = x.mean(axis=-1, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
        return (x - mu) / np.sqrt(var + 1e-5) * p[name + ".g"] + p[name + ".b"]

    x = p["tok_emb"][ids]
    if prompt is not None:
        x = np.concatenate([prompt.astype(np.float64), x])
    n = len(x)
    x = x + p["pos_emb"][:n]
    future = np.triu(np.ones((n, n), dtype=bool), k=1)
    for i in range(cfg.n_layers):
        a = f"layers.{i}.attn."
        h = ln(x, f"layers.{i}.ln1")
        q, k, v = ((h @ p[a + w] + p[a + w + "_b"]).reshape(n, nh, dh).transpose(1, 0, 2) for w in ("wq", "wk", "wv"))
        s = np.where(future, -np.inf, q @ k.transpose(0, 2, 1) / math.sqrt(dh))
        w = np.exp(s - s.max(axis=-1, keepdims=True))
        ctx = (w / w.sum(axis=-1, keepdims=True)) @ v
        x = x + ctx.transpose(1, 0, 2).reshape(n, d) @ p[a + "wo"] + p[a + "wo_b"]
        m = f"layers.{i}.mlp."
        u = ln(x, f"layers.{i}.ln2") @ p[m + "w1"] + p[m + "w1_b"]
        u = u * 0.5 * (1.0 + special.erf(u / math.sqrt(2.0)))
        x = x + u @ p[m + "w2"] + p[m + "w2_b"]
    head = p["tok_emb"].T if cfg.tie_lm_head else p["lm_head"]
    return ln(x, "final_ln") @ head


@pytest.mark.parametrize("tie", [False, True])
def test_forward_matches_numpy_reference(tie):
    with precision(np.float64):
        model = init_model(small_config(tie_lm_head=tie), 16)
        for t in model.parameters():  # move every weight off its init value
            t.data += np.random.default_rng(t.size).normal(0.0, 0.3, size=t.shape)
        prompt = init_prompt(model, length=2, seed=4).matrix
        rng = np.random.default_rng(8)
        seqs = [rng.integers(0, 29, size=n) for n in (5, 1, 8, 3)]
        verbs = [[2, 7], [3]]
        got = answer_log_probs(model, seqs, verbs, prompt).data
        full = answer_log_probs(model, seqs, EVERY_TOKEN, prompt).data
        for row, full_row, seq in zip(got, full, seqs):
            want = _numpy_forward(model, seq, prompt)
            np.testing.assert_allclose(model.forward(seq, prompt=prompt).data, want, rtol=1e-9, atol=1e-12)
            last = want[-1] - special.logsumexp(want[-1])
            np.testing.assert_allclose(full_row, last, rtol=1e-9, atol=1e-12)
            raw = np.array([special.logsumexp(last[ids]) - math.log(len(ids)) for ids in verbs])
            np.testing.assert_allclose(row, raw - special.logsumexp(raw), rtol=1e-9, atol=1e-12)


def test_answer_log_probs_per_row_prompt_copies():
    model = init_model(small_config(), 14)
    rng = np.random.default_rng(6)
    seqs = [rng.integers(0, 29, size=n) for n in (5, 2, 7)]
    mats = [init_prompt(model, length=2, seed=s).matrix for s in range(3)]
    got = answer_log_probs(model, seqs, [[4], [5]], np.stack(mats)).data
    for row, seq, mat in zip(got, seqs, mats):
        np.testing.assert_allclose(row, answer_log_probs(model, [seq], [[4], [5]], mat).data[0], atol=1e-6)


@pytest.mark.parametrize("verbs", [[[2, 7], [3]], EVERY_TOKEN], ids=["classes", "full_vocab"])
def test_shared_prompt_matches_copies_and_rows_alone(verbs):
    """One shared [l x d] prompt, n copies of it and per-row forwards agree:
    the prefix positions never see a token, so one copy serves every row."""
    with precision(np.float64):
        for n_layers in (1, 3):
            cfg = small_config(n_layers=n_layers)
            model = init_model(cfg, 17)
            for t in model.parameters():
                t.data += np.random.default_rng(t.size).normal(0.0, 0.3, size=t.shape)
            rng = np.random.default_rng(9)
            seqs = [rng.integers(0, cfg.vocab_size, size=n) for n in (4, 9, 1, 6, 9, 2)]
            prompt = rng.normal(0.0, 0.5, size=(3, cfg.d_model))
            shared = answer_log_probs(model, seqs, verbs, prompt).data
            copies = answer_log_probs(model, seqs, verbs, np.stack([prompt] * len(seqs))).data
            np.testing.assert_allclose(copies, shared, rtol=1e-9, atol=1e-12)
            for row, seq in zip(shared, seqs):
                last = model.forward(seq, prompt=prompt).data[-1]
                alone = label_set_log_probability(last, verbs)
                np.testing.assert_allclose(row, alone.data, rtol=1e-9, atol=1e-12)
            # every position of a batched prompted forward, prefix included
            ids = np.stack([seq[:1].repeat(5) if len(seq) < 5 else seq[:5] for seq in seqs])
            full = model.forward(ids, prompt=prompt).data
            assert full.shape == (len(seqs), 3 + 5, cfg.vocab_size)
            for row, seq in zip(full, ids):
                np.testing.assert_allclose(row, model.forward(seq, prompt=prompt).data, rtol=1e-9, atol=1e-12)


def test_shared_prompt_gradient_is_sum_of_copy_gradients():
    """The gradient of a shared prompt is the sum of the per-copy gradients,
    and copy r's gradient is row r's alone, which is what DP-SGD clips."""
    with precision(np.float64):
        model = init_model(small_config(n_layers=3), 18)
        model.set_trainable(False)
        rng = np.random.default_rng(10)
        seqs = [rng.integers(0, 29, size=n) for n in (5, 2, 8, 3)]
        labels = np.array([1, 0, 0, 1])
        verbs = [[4, 11], [5]]
        mat = rng.normal(0.0, 0.5, size=(2, 16))

        def nll_grad(prompt, rows):
            lp = answer_log_probs(model, [seqs[r] for r in rows], verbs, prompt)
            (-ag.take_along_last(lp, labels[rows]).sum()).backward()
            return prompt.grad

        shared = nll_grad(Tensor(mat, requires_grad=True), list(range(4)))
        per_copy = nll_grad(Tensor(np.stack([mat] * 4), requires_grad=True), list(range(4)))
        np.testing.assert_allclose(per_copy.sum(axis=0), shared, rtol=1e-9, atol=1e-12)
        for r in range(4):
            alone = nll_grad(Tensor(mat, requires_grad=True), [r])
            np.testing.assert_allclose(per_copy[r], alone, rtol=1e-9, atol=1e-12)


def test_prompted_forward_runs_the_prefix_once(monkeypatch):
    """Tier-1 guard on the work of a prompted chunk: its first layer norm
    sees the l prefix positions once, then the padded token positions."""
    model = init_model(small_config(n_layers=1), 19)
    rng = np.random.default_rng(11)
    seqs = [rng.integers(0, 29, size=n) for n in rng.integers(3, 12, size=ROWS_PER_FORWARD)]
    padded = ROWS_PER_FORWARD * max(len(s) for s in seqs)
    l = 8
    rows_seen = []
    layer_norm = ag.layer_norm

    def counting(x, *args):
        rows_seen.append(x.data.size // x.data.shape[-1])
        return layer_norm(x, *args)

    monkeypatch.setattr(ag, "layer_norm", counting)
    prompt = init_prompt(model, length=l, seed=0)
    answer_log_probs(model, seqs, [[4], [5]], prompt)
    assert rows_seen[0] == l + padded  # not ROWS_PER_FORWARD * (l + longest row)
    rows_seen.clear()
    answer_log_probs(model, seqs, [[4], [5]], np.stack([prompt.matrix] * len(seqs)))
    assert rows_seen[0] == len(seqs) * l + padded
    rows_seen.clear()
    answer_log_probs(model, seqs, [[4], [5]])
    assert rows_seen[0] == padded


def test_answer_position_forward_runs_one_query_per_row_in_the_last_block(monkeypatch):
    """Only the answer positions are read after the last block's attention,
    so its attention runs their queries alone; earlier blocks run every
    query, the prefix's included."""
    model = init_model(small_config(n_layers=3), 20)
    rng = np.random.default_rng(12)
    seqs = [rng.integers(0, 29, size=n) for n in (4, 7, 2, 7)]
    queries = []
    attend = ag._attend

    def spying(q, *args):
        queries.append(q.shape)
        return attend(q, *args)

    monkeypatch.setattr(ag, "_attend", spying)
    l, longest = 3, 7
    for prompt in (None, init_prompt(model, length=l, seed=1).matrix):
        queries.clear()
        answer_log_probs(model, seqs, [[4], [5]], prompt)
        last = queries[-1]
        assert last[0] == len(seqs) and last[2] == 1
        # a shared prompt's own attention, then its rows', in each earlier block
        per_block = [(len(seqs), 4, longest, 4)] if prompt is None else [(1, 4, l, 4), (len(seqs), 4, longest, 4)]
        assert queries[:-1] == per_block * 2


def test_class_log_probs_batch_returns_input_order():
    """Rows are chunked by length, but come back in the order given."""
    with precision(np.float64):
        model = init_model(small_config(), 20)
        rng = np.random.default_rng(12)
        seqs = [rng.integers(0, 29, size=n) for n in rng.integers(2, 14, size=2 * ROWS_PER_FORWARD + 5)]
        prompt = init_prompt(model, length=2, seed=3)
        perm = rng.permutation(len(seqs))
        for verbs in ([[4], [5]], EVERY_TOKEN):
            out = class_log_probs_batch(model, seqs, verbs, prompt=prompt)
            shuffled = class_log_probs_batch(model, [seqs[i] for i in perm], verbs, prompt=prompt)
            np.testing.assert_allclose(shuffled, out[perm], rtol=1e-9, atol=1e-12)
            for i in (0, 17, len(seqs) - 1):
                alone = answer_log_probs(model, [seqs[i]], verbs, prompt).data[0]
                np.testing.assert_allclose(out[i], alone, rtol=1e-9, atol=1e-12)


def test_class_log_probs_batch_chunks_rows():
    model = init_model(small_config(), 15)
    rng = np.random.default_rng(7)
    seqs = [rng.integers(0, 29, size=rng.integers(2, 8)) for _ in range(2 * ROWS_PER_FORWARD + 3)]
    calls = []
    forward = model._forward_batch

    def counting(ids, *args, **kwargs):
        calls.append(ids.shape)
        return forward(ids, *args, **kwargs)

    model._forward_batch = counting
    out = class_log_probs_batch(model, seqs, [[4], [5]])
    assert [rows for rows, _ in calls] == [ROWS_PER_FORWARD, ROWS_PER_FORWARD, 3]
    # chunks of the length-sorted rows, each padded to its own longest row
    lengths = sorted(len(s) for s in seqs)
    starts = range(0, len(seqs), ROWS_PER_FORWARD)
    assert [width for _, width in calls] == [max(lengths[i : i + ROWS_PER_FORWARD]) for i in starts]
    assert out.dtype == np.float64 and out.shape == (len(seqs), 2)
    assert class_log_probs_batch(model, [], [[4], [5]]).shape == (0, 2)


def test_class_log_probs_batch_rejects_per_row_prompts():
    """Its rows are sorted by length into chunks, so one prompt copy per row
    would score rows with another row's copy; such a prompt is refused."""
    model = init_model(small_config(), 15)
    seqs = [np.array([1, 2, 3, 4, 5]), np.array([6, 7]), np.array([8, 9, 10])]  # sorting moves every row
    own = np.stack([init_prompt(model, length=2, seed=s).matrix for s in range(len(seqs))])
    with pytest.raises(ValueError, match="answer_log_probs"):
        class_log_probs_batch(model, seqs, [[4], [5]], prompt=own)
    shared = class_log_probs_batch(model, seqs, [[4], [5]], prompt=own[0])
    np.testing.assert_allclose(shared, answer_log_probs(model, seqs, [[4], [5]], own[0]).data, rtol=0, atol=1e-6)


def test_prompt_gradient_path_finite_diff():
    """The pipeline's prompt objective (class cross-entropy at the answer
    positions of a ragged batch) through the prefix layout, in float64, for
    a shared prompt and for one copy per row."""
    with precision(np.float64):
        cfg = small_config(vocab_size=17, max_seq_len=12)
        model = init_model(cfg, 11)
        model.set_trainable(False)
        seqs = [np.array([1, 5, 2, 9]), np.array([3, 8]), np.array([7, 1, 4])]
        labels = np.array([0, 1, 1])

        def f(pv):
            lp = answer_log_probs(model, seqs, [[2, 6], [9]], pv)
            return -ag.take_along_last(lp, labels).sum()

        rng = np.random.default_rng(4)
        for shape in [(2, cfg.d_model)] * 2 + [(len(seqs), 2, cfg.d_model)] * 2:
            mat = rng.normal(0.0, 0.5, size=shape)
            ok, err = finite_diff_check(f, mat, tolerance=1e-6, max_coords=12, rng=rng)
            assert ok, err

