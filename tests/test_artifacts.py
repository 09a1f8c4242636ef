import json
import struct

import numpy as np
import pytest

from promptxfer import autograd as ag

from promptxfer.artifacts import (
    ArtifactError,
    load_model,
    load_prompt,
    save_model,
    save_prompt,
)
from promptxfer.corpus import default_task_spec, gen_synth_pair, tokenize_corpus
from promptxfer.distill import KdConfig, distill, train_lm
from promptxfer.model import DpMeta, ModelConfig, SoftPrompt, init_model, init_prompt
from promptxfer import tuning
from promptxfer.tuning import TuneConfig, make_dp_params, tune_prompt


def test_model_round_trip_bit_exact(tmp_path):
    model = init_model(ModelConfig(n_layers=2, d_model=16, n_heads=2, vocab_size=23, max_seq_len=16), 3)
    p1 = tmp_path / "m.pstl"
    p2 = tmp_path / "m2.pstl"
    save_model(p1, model, provenance={"stage": "unit-test"})
    loaded = load_model(p1)
    assert loaded.fingerprint() == model.fingerprint()
    save_model(p2, loaded)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.fixture(scope="module")
def trained_models():
    """A teacher after a few LM steps, a student after a few KD steps, and a
    tuning set."""
    spec = default_task_spec(
        seed=5, n_private_train=16, n_private_test=8, n_public=8, n_corpus_sentences=64, length_range=(4, 8)
    )
    private, _, corpus = gen_synth_pair(spec)
    ids = tokenize_corpus(corpus, private.vocab)
    config = ModelConfig(n_layers=2, d_model=16, n_heads=2, vocab_size=private.vocab.size, max_seq_len=32)
    teacher = init_model(config, 0)
    train_lm(teacher, ids, steps=3, batch_size=8, learning_rate=1e-2, seed=0)
    student, _ = distill(teacher, ids, KdConfig(student_layer_indices=(1,), max_steps=3), seed=1)
    return teacher, student, private.split("train")


@pytest.mark.parametrize("dp", [False, True])
def test_training_and_tuning_stay_float32(trained_models, monkeypatch, dp):
    teacher, student, train = trained_models
    for model in (teacher, student):
        assert {p.data.dtype for p in model.parameters()} == {np.dtype(np.float32)}
    seen = set()
    answer_log_probs = tuning.answer_log_probs

    def recording(model, sequences, verbalizers, prompt=None):
        out = answer_log_probs(model, sequences, verbalizers, prompt)
        seen.update((prompt.data.dtype, out.data.dtype))
        return out

    monkeypatch.setattr(tuning, "answer_log_probs", recording)
    cfg = TuneConfig(epochs=1, learning_rate=1e-2, batch_size=8, seed=0)
    if dp:
        cfg.dp = make_dp_params(dataset_size=len(train), batch_size=8, epochs=1, epsilon=8.0)
    tune_prompt(student, init_prompt(student, length=2, seed=3), train, cfg)
    assert seen == {np.dtype(np.float32)}


def test_trained_models_round_trip_bit_exact(trained_models, tmp_path):
    for model in trained_models[:2]:
        path, again = tmp_path / "m.pstl", tmp_path / "m2.pstl"
        save_model(path, model)
        loaded = load_model(path)
        assert loaded.fingerprint() == model.fingerprint()
        for name, p in model.params.items():
            assert loaded.params[name].data.dtype == np.float32
            np.testing.assert_array_equal(loaded.params[name].data, p.data)
        save_model(again, loaded)
        assert path.read_bytes() == again.read_bytes()


def test_save_model_refuses_a_float64_parameter(tmp_path):
    model = init_model(ModelConfig(n_layers=1, d_model=8, n_heads=2, vocab_size=11, max_seq_len=8), 0)
    w1 = model.params["layers.0.mlp.w1"]
    model.params["layers.0.mlp.w1"] = ag._new(w1.data.astype(np.float64))
    path = tmp_path / "m.pstl"
    with pytest.raises(ArtifactError, match=r"layers\.0\.mlp\.w1 is float64"):
        save_model(path, model)
    assert not path.exists()


def test_swapped_tensor_shape_raises_artifact_error(tmp_path):
    model = init_model(ModelConfig(n_layers=1, d_model=8, n_heads=2, vocab_size=11, max_seq_len=8), 0)
    before = model.fingerprint()
    emb = model.params["tok_emb"].data
    model.params["tok_emb"] = ag._new(emb.reshape(8, 11))  # same bytes, dims swapped
    assert model.fingerprint() != before  # shapes are part of the fingerprint
    path = tmp_path / "swapped.pstl"
    save_model(path, model)  # its fingerprint matches the swapped tensor
    with pytest.raises(ArtifactError, match="tok_emb"):
        load_model(path)


def test_model_magic_and_tamper_detection(tmp_path):
    model = init_model(ModelConfig(n_layers=1, d_model=8, n_heads=2, vocab_size=11, max_seq_len=8), 0)
    path = tmp_path / "m.pstl"
    save_model(path, model)

    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    bad = tmp_path / "bad.pstl"
    bad.write_bytes(bytes(raw))
    with pytest.raises(ArtifactError, match="magic"):
        load_model(bad)

    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0xFF  # flip one payload byte
    tampered = tmp_path / "tampered.pstl"
    tampered.write_bytes(bytes(raw))
    with pytest.raises(ArtifactError, match="fingerprint"):
        load_model(tampered)


def test_prompt_round_trip_bit_exact(tmp_path):
    model = init_model(ModelConfig(n_layers=1, d_model=8, n_heads=2, vocab_size=11, max_seq_len=12), 1)
    prompt = init_prompt(model, length=3, seed=9)
    prompt.dp_meta = DpMeta(epsilon=8.0, delta=1e-4, sigma=1.3, clip_norm=1.0)
    p1, p2 = tmp_path / "p.pspa", tmp_path / "p2.pspa"
    save_prompt(p1, prompt, tuning_config_digest="abc123")
    loaded = load_prompt(p1)
    np.testing.assert_array_equal(loaded.matrix, prompt.matrix)
    assert loaded.init_seed == prompt.init_seed
    assert b'"init_scheme":"gaussian"' in p1.read_bytes()
    assert loaded.source_fingerprint == prompt.source_fingerprint
    assert loaded.dp_meta == prompt.dp_meta
    save_prompt(p2, loaded, tuning_config_digest="abc123")
    assert p1.read_bytes() == p2.read_bytes()


def test_prompt_without_dp_meta(tmp_path):
    prompt = SoftPrompt(
        matrix=np.ones((2, 4), dtype=np.float32),
        init_seed=0,
        source_fingerprint="f" * 64,
    )
    path = tmp_path / "p.pspa"
    save_prompt(path, prompt)
    assert load_prompt(path).dp_meta is None


def _saved(tmp_path):
    model = init_model(ModelConfig(n_layers=1, d_model=8, n_heads=2, vocab_size=11, max_seq_len=8), 0)
    prompt = init_prompt(model, length=3, seed=9)
    prompt.dp_meta = DpMeta(epsilon=8.0, delta=1e-4, sigma=1.3, clip_norm=1.0)
    save_model(tmp_path / "m.pstl", model)
    save_prompt(tmp_path / "p.pspa", prompt)
    return ((tmp_path / "m.pstl", load_model), (tmp_path / "p.pspa", load_prompt))


def test_truncated_or_extended_artifacts_raise_artifact_error(tmp_path):
    for path, load in _saved(tmp_path):
        raw = path.read_bytes()
        bad = tmp_path / ("bad" + path.suffix)
        for n in range(len(raw)):
            bad.write_bytes(raw[:n])
            with pytest.raises(ArtifactError):
                load(bad)
        bad.write_bytes(raw + b"\0")
        with pytest.raises(ArtifactError, match="trailing"):
            load(bad)


def test_corrupt_artifact_headers_raise_artifact_error(tmp_path):
    for path, load in _saved(tmp_path):
        raw = path.read_bytes()
        (meta_len,) = struct.unpack("<I", raw[6:10])
        bad = tmp_path / ("bad" + path.suffix)
        # every header byte flipped: magic, version, metadata length, metadata JSON
        for i in range(10 + meta_len):
            corrupt = bytearray(raw)
            corrupt[i] ^= 0xFF
            bad.write_bytes(bytes(corrupt))
            with pytest.raises(ArtifactError):
                load(bad)


def test_prompt_metadata_that_is_valid_json_but_not_a_prompt(tmp_path):
    # a complete header, but for a prompt start the program does not make
    other_start = {"l": 1, "d": 2, "init_seed": 0, "init_scheme": "embedding_sample", "source_fingerprint": "f"}
    for meta in ([1, 2], {"l": 3}, {"l": -1, "d": -4}, {"l": 10**12, "d": 10**12}, {"l": 1, "d": 2, "init_seed": 0},
                 other_start):
        blob = json.dumps(meta).encode()
        path = tmp_path / "p.pspa"
        path.write_bytes(b"PSPA" + struct.pack("<HI", 1, len(blob)) + blob + bytes(8))
        with pytest.raises(ArtifactError):
            load_prompt(path)
