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
    word_tokenize,
    write_csv,
)


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
    assert v.decode(v.encode(tokens)) == tokens


def make_dataset():
    v = build_vocab(["great movie , it was good bad fine poor"])
    return LabeledDataset(
        texts=["great movie", "bad movie"],
        labels=np.array([1, 0]),
        n_classes=2,
        template_suffix=", it was",
        verbalizers=((v.id_of("bad"),), (v.id_of("good"),)),
        vocab=v,
        split_tags=("train", "train"),
    )


def test_apply_template_example():
    ds = make_dataset()
    ids = apply_template("great movie", ds)
    expected = [BOS_ID] + ds.vocab.encode(["great", "movie", ",", "it", "was"])
    assert list(ids) == expected
    # templated length = 1 + len(text tokens) + len(suffix tokens)
    assert len(ids) == 1 + 2 + 3
    with pytest.raises(ValueError):
        apply_template("   ", ds)


def test_dataset_validation():
    v = build_vocab(["a b c"])
    with pytest.raises(ValueError):
        LabeledDataset(
            texts=["a"],
            labels=np.array([2]),
            n_classes=2,
            template_suffix=", it was",
            verbalizers=((3,), (4,)),
            vocab=v,
            split_tags=("train",),
        )
    with pytest.raises(ValueError, match="disjoint"):
        LabeledDataset(
            texts=["a"],
            labels=np.array([0]),
            n_classes=2,
            template_suffix=", it was",
            verbalizers=((3,), (3,)),
            vocab=v,
            split_tags=("train",),
        )


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
    np.testing.assert_array_equal(sub.templated(1), pri.templated(1))


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
    loaded = load_csv(path, ds.template_suffix, [["bad"], ["good"]], ds.vocab)
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
