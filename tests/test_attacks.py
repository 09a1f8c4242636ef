import math

import numpy as np
import pytest

from promptxfer.attacks import (
    AttackResult,
    auc,
    lira_attack,
    logit_scale,
    tpr_at_fpr,
    write_attack_csv,
    write_attack_summary,
)
from promptxfer.corpus import default_task_spec, gen_synth_pair, tokenize_corpus
from promptxfer.distill import lm_objective, train_lm
from promptxfer.model import ModelConfig, init_model, init_prompt
from promptxfer.tuning import TuneConfig, tune_prompt


def scores_and_membership(res: AttackResult) -> tuple[np.ndarray, np.ndarray]:
    _, scores, members = zip(*res.per_example)
    return np.array(scores), np.array(members, dtype=bool)


def test_logit_scale_values():
    assert logit_scale(0.5) == 0.0
    assert logit_scale(0.9) == pytest.approx(math.log(9.0), rel=1e-9)
    for p in (0.1, 0.25, 0.6, 0.99):
        assert logit_scale(p) == pytest.approx(-logit_scale(1.0 - p), rel=1e-9)
    assert np.isfinite(logit_scale(0.0)) and np.isfinite(logit_scale(1.0))


def test_auc_examples():
    assert auc([3.0, 2.0, 1.0, 0.0], [True, True, False, False]) == 1.0
    assert auc([0.9, 0.4, 0.6, 0.2], [True, True, False, False]) == 0.75
    assert auc([1.0, 1.0, 1.0, 1.0], [True, True, False, False]) == 0.5
    with pytest.raises(ValueError):
        auc([1.0, 2.0], [True, True])


def test_auc_antisymmetry():
    rng = np.random.default_rng(0)
    scores = rng.normal(size=40)  # continuous, tie-free
    labels = rng.random(40) < 0.5
    labels[0], labels[1] = True, False
    assert auc(scores, labels) + auc(-scores, labels) == pytest.approx(1.0, abs=1e-12)


def test_auc_is_the_pairwise_win_rate_with_ties_halved():
    """Tie-averaged ranks count a tied (positive, negative) pair as half a
    win, exactly: every count here is a small half-integer."""
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.integers(2, 30))
        scores = rng.integers(0, 4, size=n).astype(float)  # many ties
        labels = rng.random(n) < 0.5
        labels[0], labels[1] = True, False
        pos, neg = scores[labels], scores[~labels]
        wins = sum((p > q) + 0.5 * (p == q) for p in pos for q in neg)
        assert auc(scores, labels) == wins / (pos.size * neg.size)


def test_tpr_at_fpr_examples():
    assert tpr_at_fpr([3.0, 2.0, 1.0, 0.0], [True, True, False, False], 0.01) == 1.0
    assert tpr_at_fpr([0.9, 0.4, 0.6, 0.2], [True, True, False, False], 0.01) == 0.5
    # fpr below 1/#negatives forces the threshold above every negative
    scores = [0.9, 0.8, 0.7, 0.6]
    labels = [True, False, True, False]
    assert tpr_at_fpr(scores, labels, 0.01) == 0.5  # only the 0.9 member clears 0.8


def test_tpr_nondecreasing_in_target():
    rng = np.random.default_rng(1)
    scores = rng.normal(size=60)
    labels = rng.random(60) < 0.4
    labels[0], labels[1] = True, False
    values = [tpr_at_fpr(scores, labels, t) for t in (0.01, 0.05, 0.2, 0.5, 0.9)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_attack_result_auc_consistency(tmp_path):
    per = [(0, 0.9, True), (1, 0.4, True), (2, 0.6, False), (3, 0.2, False)]
    res = AttackResult(
        per_example=per,
        auc=auc([p[1] for p in per], [p[2] for p in per]),
        tpr_at_1pct_fpr=tpr_at_fpr([p[1] for p in per], [p[2] for p in per], 0.01),
        n_shadows=8,
    )
    assert res.auc == auc(*scores_and_membership(res))

    csv_path = tmp_path / "attack.csv"
    write_attack_csv(res, csv_path)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "example_id,score,member_flag"
    assert len(lines) == 5

    import json

    summary_path = tmp_path / "summary.json"
    write_attack_summary(res, summary_path, seeds=[0, 1, 2])
    blob = json.loads(summary_path.read_text())
    assert blob["auc"] == res.auc and blob["n_shadows"] == 8 and blob["seeds"] == [0, 1, 2]


# -- LiRA ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def attack_setup():
    spec = default_task_spec(
        seed=51,
        n_private_train=96,
        n_private_test=16,
        n_public=16,
        n_corpus_sentences=500,
        length_range=(8, 12),
        keyword_density=0.3,
    )
    private, _, corpus = gen_synth_pair(spec)
    ids = tokenize_corpus(corpus, private.vocab)
    cfg = ModelConfig(n_layers=2, d_model=32, n_heads=4, vocab_size=private.vocab.size, max_seq_len=32)
    model = init_model(cfg, 3)
    train_lm(model, ids, 600, 16, 3e-3, 0, lm_objective(model))
    pool = private.split("train")
    return model, pool


def make_train_fn(model, epochs=25):
    def train_fn(dataset, seed):
        prompt = init_prompt(model, length=4, seed=seed)
        tuned, _ = tune_prompt(
            model,
            prompt,
            dataset,
            TuneConfig(epochs=epochs, learning_rate=3e-2, batch_size=16),
            seed,
        )
        return tuned

    return train_fn


def test_lira_leaks_on_overfit_prompt_and_null_is_chance(attack_setup):
    from promptxfer.corpus import with_label_noise

    model, pool = attack_setup
    pool = with_label_noise(pool, 0.15, seed=1234)
    train_fn = make_train_fn(model, epochs=40)

    rng = np.random.default_rng(99)
    members = np.sort(rng.choice(len(pool), size=len(pool) // 2, replace=False))
    target = train_fn(pool.subset(members), 7070)

    res = lira_attack(model, pool, train_fn, target, members, n_shadows=8, seed=11)
    assert res.n_shadows == 8
    scores, membership = scores_and_membership(res)
    assert res.auc == auc(scores, membership)
    assert res.auc > 0.52

    # shuffled membership destroys the signal (mean over reshuffles)
    shuffle_rng = np.random.default_rng(5)
    nulls = []
    for _ in range(20):
        shuffled = membership.copy()
        shuffle_rng.shuffle(shuffled)
        nulls.append(auc(scores, shuffled))
    assert abs(float(np.mean(nulls)) - 0.5) < 0.05

    # determinism of the full attack
    res2 = lira_attack(model, pool, train_fn, target, members, n_shadows=8, seed=11)
    assert res2.per_example == res.per_example


def test_lira_rejects_too_few_shadows(attack_setup):
    model, pool = attack_setup
    with pytest.raises(ValueError):
        lira_attack(model, pool, make_train_fn(model, 1), init_prompt(model, 4, 0), [0, 1], n_shadows=1)


def _loop_gaussian_fit(conf, in_mask):
    """The per-candidate loop the masked sums replaced: each side's mean,
    and every confidence's residual about it, pooled."""
    n = conf.shape[1]
    mu_in, mu_out = np.full(n, np.nan), np.full(n, np.nan)
    residuals = []
    for z in range(n):
        for mask, mu in ((in_mask[:, z], mu_in), (~in_mask[:, z], mu_out)):
            vals = conf[mask, z]
            if vals.size:
                mu[z] = vals.mean()
                residuals.extend(vals - vals.mean())
    return mu_in, mu_out, max(float(np.mean(np.square(residuals))), 1e-12)


def test_gaussian_fit_matches_the_per_candidate_loop():
    from promptxfer.attacks import _gaussian_fit

    rng = np.random.default_rng(3)
    conf = rng.normal(0.0, 4.0, size=(6, 40))
    in_mask = rng.random((6, 40)) < 0.5
    in_mask[:, 0] = False  # no IN side
    in_mask[:, 1] = True  # no OUT side
    mu_in, mu_out, var = _gaussian_fit(conf, in_mask)
    ref_in, ref_out, ref_var = _loop_gaussian_fit(conf, in_mask)
    assert np.isnan(mu_in[0]) and np.isnan(mu_out[1])
    np.testing.assert_allclose(mu_in, ref_in, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(mu_out, ref_out, rtol=1e-12, atol=1e-12)
    assert var == pytest.approx(ref_var, rel=1e-12)
