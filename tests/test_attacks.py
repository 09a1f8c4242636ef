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
from promptxfer.model import ModelConfig, init_model, init_prompt, lm_loss
from promptxfer.optim import Optimizer
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
    model.set_trainable(True)
    opt = Optimizer(model.parameters(), learning_rate=3e-3)
    rng = np.random.default_rng(0)
    from promptxfer.distill import _length_buckets, sample_length_bucketed_batch

    buckets = _length_buckets(ids)
    for _ in range(600):
        batch = sample_length_bucketed_batch(ids, buckets, 16, rng)
        opt.zero_grad()
        lm_loss(model, batch).backward()
        opt.step()
    model.set_trainable(False)
    pool = private.split("train")
    return model, pool


def make_train_fn(model, epochs=25):
    def train_fn(dataset, seed):
        prompt = init_prompt(model, length=4, seed=seed)
        tuned, _ = tune_prompt(
            model,
            prompt,
            dataset,
            TuneConfig(epochs=epochs, learning_rate=3e-2, batch_size=16, seed=seed),
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
