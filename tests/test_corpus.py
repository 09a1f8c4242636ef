from dataclasses import replace

import numpy as np
import pytest

from promptxfer.corpus import (
    BOS_ID,
    PAD_ID,
    UNK_ID,
    LabeledDataset,
    Vocab,
    apply_template,
    build_vocab,
    default_task_spec,
    gen_synth_pair,
    load_csv,
    tokenize_corpus,
    with_label_noise,
    word_tokenize,
)
from task_csv import write_csv


def test_specials_fixed():
    v = build_vocab(["a b a"])
    assert PAD_ID == 0 and UNK_ID == 1 and BOS_ID == 2
    assert v.id_to_token[:3] == ("<pad>", "<unk>", "<bos>")


def test_build_vocab_example():
    v = build_vocab(["a b a"])
    assert v.size == 5
    assert v.id_of("a") == 3  # frequency 2 beats b
    assert v.id_of("b") == 4


def test_build_vocab_deterministic_and_unk():
    texts = ["x y z z", "y x w"]
    assert build_vocab(texts).id_to_token == build_vocab(list(texts)).id_to_token
    v = build_vocab(texts)
    assert v.id_of("unseen") == UNK_ID
    with pytest.raises(ValueError):
        build_vocab([])


def test_tokenize_splits_punctuation_no_case_folding():
    assert word_tokenize("great movie, it was") == ["great", "movie", ",", "it", "was"]
    v = build_vocab(["Great great"])
    assert v.id_of("Great") != v.id_of("great")


def test_tokenize_encode_decode_identity_on_canonical_text():
    v = build_vocab(["alpha beta , gamma"])
    tokens = word_tokenize("alpha beta , gamma")
    assert tokens == ["alpha", "beta", ",", "gamma"]
    assert [v.id_to_token[i] for i in v.encode(tokens)] == tokens


SUFFIX = ", it was"


def make_dataset():
    v = build_vocab(["great movie , it was good bad fine poor"])
    texts = ["great movie", "bad movie"]
    return LabeledDataset(
        texts=texts,
        sequences=[apply_template(t, SUFFIX, v) for t in texts],
        labels=np.array([1, 0]),
        verbalizers=((v.id_of("bad"),), (v.id_of("good"),)),
        vocab=v,
        split_tags=("train", "train"),
    )


def test_apply_template_example():
    v = make_dataset().vocab
    ids = apply_template("great movie", SUFFIX, v)
    expected = [BOS_ID] + v.encode(["great", "movie", ",", "it", "was"])
    assert list(ids) == expected
    # templated length = 1 + len(text tokens) + len(suffix tokens)
    assert len(ids) == 1 + 2 + 3
    with pytest.raises(ValueError):
        apply_template("   ", SUFFIX, v)


def test_dataset_validation():
    v = build_vocab(["a b c"])
    seqs = [apply_template("a", SUFFIX, v)]
    with pytest.raises(ValueError):
        LabeledDataset(
            texts=["a"],
            sequences=seqs,
            labels=np.array([2]),
            verbalizers=((3,), (4,)),
            vocab=v,
            split_tags=("train",),
        )
    with pytest.raises(ValueError, match="disjoint"):
        LabeledDataset(
            texts=["a"],
            sequences=seqs,
            labels=np.array([0]),
            verbalizers=((3,), (3,)),
            vocab=v,
            split_tags=("train",),
        )


@pytest.mark.parametrize("rate", [1.5, -0.2, float("nan")])
def test_corpus_verbalizer_rate_outside_zero_one_is_rejected(rate):
    with pytest.raises(ValueError, match="corpus_verbalizer_rate"):
        default_task_spec(corpus_verbalizer_rate=rate)


def test_gen_synth_pair_cue_disjointness_and_determinism():
    spec = default_task_spec(seed=11)
    pri1, pub1, corpus1 = gen_synth_pair(spec)
    pri2, pub2, corpus2 = gen_synth_pair(spec)
    assert pri1.texts == pri2.texts and pub1.texts == pub2.texts and corpus1 == corpus2

    halves = [set(p[: len(p) // 2]) for p in spec.class_keyword_pools]
    pub_halves = [set(p[len(p) // 2 :]) for p in spec.class_keyword_pools]
    pri_words = set(w for t in pri1.texts for w in t.split())
    pub_words = set(w for t in pub1.texts for w in t.split())
    for h, ph in zip(halves, pub_halves):
        assert not pri_words.intersection(ph)
        assert not pub_words.intersection(h)


def test_gen_synth_pair_class_balance():
    spec = default_task_spec(seed=3, n_private_train=1000, n_private_test=10, n_public=10)
    pri, _, _ = gen_synth_pair(spec)
    train = pri.split("train")
    frac = np.mean(train.labels == 0)
    assert abs(frac - 0.5) <= 0.02


def test_bayes_optimal_keyword_classifier_on_private():
    spec = default_task_spec(
        seed=5, keyword_density=0.3, length_range=(10, 20), n_private_train=1000, n_private_test=10
    )
    pri, _, _ = gen_synth_pair(spec)
    train = pri.split("train")
    halves = [set(p[: len(p) // 2]) for p in spec.class_keyword_pools]
    correct = 0
    for text, label in zip(train.texts, train.labels):
        words = text.split()
        counts = [sum(w in h for w in words) for h in halves]
        pred = int(np.argmax(counts))
        correct += pred == label
    assert correct / len(train) > 0.95


def test_split_tags_and_subset():
    spec = default_task_spec(seed=2, n_private_train=20, n_private_test=10, n_public=8)
    pri, pub, _ = gen_synth_pair(spec)
    assert len(pri.split("train")) == 20
    assert len(pri.split("test")) == 10
    assert len(pub) == 8
    sub = pri.subset([0, 1, 2])
    assert len(sub) == 3
    np.testing.assert_array_equal(sub.sequences[1], pri.sequences[1])


def test_tokenize_corpus_bos_prefixed():
    spec = default_task_spec(seed=1, n_corpus_sentences=5)
    _, _, corpus = gen_synth_pair(spec)
    pri, _, _ = gen_synth_pair(spec)
    ids = tokenize_corpus(corpus, pri.vocab)
    assert all(seq[0] == BOS_ID for seq in ids)
    assert all(seq.min() >= 0 and seq.max() < pri.vocab.size for seq in ids)


def test_csv_round_trip(tmp_path):
    ds = make_dataset()
    path = tmp_path / "task.csv"
    write_csv(ds, path)
    loaded = load_csv(path, SUFFIX, [["bad"], ["good"]], ds.vocab)
    assert loaded.texts == ds.texts
    np.testing.assert_array_equal(loaded.labels, ds.labels)
    assert loaded.verbalizers == ds.verbalizers


def test_csv_errors(tmp_path):
    v = build_vocab(["some words good bad"])
    p = tmp_path / "bad_label.csv"
    p.write_text("text,label\nsome words,5\n")
    with pytest.raises(ValueError, match="row 2"):
        load_csv(p, ", it was", [["bad"], ["good"]], v)

    p2 = tmp_path / "missing_col.csv"
    p2.write_text("sentence,y\nfoo,0\n")
    with pytest.raises(ValueError, match="header"):
        load_csv(p2, ", it was", [["bad"], ["good"]], v)

    p3 = tmp_path / "ok.csv"
    p3.write_text("text,label\nsome words,0\n")
    with pytest.raises(ValueError, match="not in the vocabulary"):
        load_csv(p3, ", it was", [["bad"], ["missingword"]], v)

    with pytest.raises(ValueError, match="not an integer"):
        p4 = tmp_path / "nonint.csv"
        p4.write_text("text,label\nsome words,zero\n")
        load_csv(p4, ", it was", [["bad"], ["good"]], v)


BUILT_SPEC = default_task_spec(seed=4, n_private_train=12, n_private_test=6, n_public=8, n_corpus_sentences=20)


@pytest.fixture(params=["synthetic", "csv"])
def built(request, tmp_path) -> LabeledDataset:
    """A dataset from each builder: `gen_synth_pair`'s private set, and
    that set written as a CSV and read back by `load_csv`."""
    private, _, _ = gen_synth_pair(BUILT_SPEC)
    if request.param == "synthetic":
        return private
    path = tmp_path / "task.csv"
    write_csv(private, path)
    return load_csv(path, BUILT_SPEC.template_suffix, BUILT_SPEC.verbalizer_words, private.vocab)


def assert_rows_of(derived: LabeledDataset, source: LabeledDataset, rows) -> None:
    assert derived.texts == [source.texts[i] for i in rows]
    assert len(derived.sequences) == len(rows)
    for seq, i in zip(derived.sequences, rows):
        np.testing.assert_array_equal(seq, source.sequences[i])


def test_a_builder_templates_each_text_once(built):
    assert len(built.sequences) == len(built.texts)
    for text, seq in zip(built.texts, built.sequences):
        np.testing.assert_array_equal(seq, apply_template(text, BUILT_SPEC.template_suffix, built.vocab))
    assert built.n_classes == len(built.verbalizers) == BUILT_SPEC.n_classes


def test_subset_split_and_label_noise_carry_the_same_rows(built):
    rows = [5, 0, 3]
    assert_rows_of(built.subset(rows), built, rows)
    tag = built.split_tags[0]
    assert_rows_of(built.split(tag), built, [i for i, t in enumerate(built.split_tags) if t == tag])
    noisy = with_label_noise(built, 0.5, seed=1)
    assert_rows_of(noisy, built, range(len(built)))
    assert np.any(noisy.labels != built.labels)


def test_a_dataset_whose_texts_and_sequences_differ_in_count_is_rejected(built):
    with pytest.raises(ValueError, match="align"):
        replace(built, sequences=built.sequences[:-1])
