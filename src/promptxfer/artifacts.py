"""Binary artifact formats: model checkpoints (PSTL) and prompt files (PSPA).

Layout (little-endian): magic(4) | version u16 | meta_len u32 | meta JSON
(canonical: sorted keys, compact separators) | payload.  Model payload is a
tensor table: count u32, then per entry name_len u16, name, dtype tag u8
(0 = f32), ndim u8, dims u32..., raw '<f4' values.  Prompt payload is the
l x d matrix as raw '<f4'.  Round-trips are bit-exact.

The readers raise `ArtifactError` for any file they cannot read back: a bad
magic or version, a truncated or over-long file, unreadable metadata, or a
checkpoint whose weights do not match its fingerprint.  `save_model` raises
it for a model with a parameter that is not float32, rather than writing a
checkpoint that could never load.

A checkpoint's config carries a fixed `"tie_lm_head": false`
(`model.config_record`) and a prompt file a fixed `"init_scheme":
"gaussian"` (`model.initial_prompt_matrix`): the one head and the one start
the program builds.  A reader raises `ArtifactError` for any other value.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import struct
from typing import BinaryIO

import numpy as np

from . import autograd as ag
from .model import DpMeta, ModelConfig, SoftPrompt, TransformerLM, config_record, param_names

MODEL_MAGIC = b"PSTL"
PROMPT_MAGIC = b"PSPA"
FORMAT_VERSION = 1
_DTYPE_F32 = 0
INIT_SCHEME = "gaussian"


class ArtifactError(ValueError):
    pass


def _canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _write_header(fh: BinaryIO, magic: bytes, meta: dict) -> None:
    blob = _canonical_json(meta)
    fh.write(magic)
    fh.write(struct.pack("<H", FORMAT_VERSION))
    fh.write(struct.pack("<I", len(blob)))
    fh.write(blob)


def _read(fh: BinaryIO, n: int) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise ArtifactError(f"truncated artifact: expected {n} more bytes, found {len(data)}")
    return data


def _open(path) -> io.BytesIO:
    # an in-memory view, so a corrupt length cannot make a read allocate it
    with open(path, "rb") as fh:
        return io.BytesIO(fh.read())


def _expect_end(fh: BinaryIO) -> None:
    if fh.read(1):
        raise ArtifactError("trailing bytes after the artifact payload")


@contextlib.contextmanager
def _unreadable_as_artifact_error(path):
    """Metadata that does not decode or describe a valid artifact."""
    try:
        yield
    except ArtifactError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError, struct.error) as e:
        raise ArtifactError(f"unreadable artifact {path}: {e!r}") from e


def _read_header(fh: BinaryIO, magic: bytes) -> dict:
    got = fh.read(4)
    if got != magic:
        raise ArtifactError(f"bad magic {got!r}, expected {magic!r}")
    (version,) = struct.unpack("<H", _read(fh, 2))
    if version != FORMAT_VERSION:
        raise ArtifactError(f"unsupported format version {version}")
    (meta_len,) = struct.unpack("<I", _read(fh, 4))
    return json.loads(_read(fh, meta_len).decode("utf-8"))


def _write_tensor(fh: BinaryIO, name: str, arr: np.ndarray) -> None:
    data = np.ascontiguousarray(arr, dtype="<f4")
    raw = name.encode("utf-8")
    fh.write(struct.pack("<H", len(raw)))
    fh.write(raw)
    fh.write(struct.pack("<BB", _DTYPE_F32, data.ndim))
    fh.write(struct.pack(f"<{data.ndim}I", *data.shape))
    fh.write(data.tobytes())


def _read_tensor(fh: BinaryIO) -> tuple[str, np.ndarray]:
    (name_len,) = struct.unpack("<H", _read(fh, 2))
    name = _read(fh, name_len).decode("utf-8")
    dtype_tag, ndim = struct.unpack("<BB", _read(fh, 2))
    if dtype_tag != _DTYPE_F32:
        raise ArtifactError(f"unknown dtype tag {dtype_tag}")
    shape = struct.unpack(f"<{ndim}I", _read(fh, 4 * ndim))
    arr = np.frombuffer(_read(fh, 4 * math.prod(shape)), dtype="<f4").reshape(shape).copy()
    return name, arr


def save_model(path, model: TransformerLM) -> None:
    """Write a PSTL checkpoint with `model.provenance`.  Every parameter
    must be float32, the dtype the file stores, or the fingerprint would not
    match on reload."""
    for name, p in model.params.items():
        if p.data.dtype != np.float32:
            raise ArtifactError(f"cannot save {path}: parameter {name} is {p.data.dtype}, not float32")
    meta = {
        "config": config_record(model.config),
        "fingerprint": model.fingerprint(),
        "provenance": model.provenance,
    }
    with open(path, "wb") as fh:
        _write_header(fh, MODEL_MAGIC, meta)
        names = param_names(model.config)
        fh.write(struct.pack("<I", len(names)))
        for name in names:
            _write_tensor(fh, name, model.params[name].data)


def load_model(path) -> TransformerLM:
    fh = _open(path)
    with _unreadable_as_artifact_error(path):
        meta = _read_header(fh, MODEL_MAGIC)
        record = dict(meta["config"])
        if record.pop("tie_lm_head") is not False:
            raise ArtifactError(f"{path}: a tied LM head, which this version does not read")
        config = ModelConfig(**record)
        (count,) = struct.unpack("<I", _read(fh, 4))
        params: dict[str, ag.Tensor] = {}
        for _ in range(count):
            name, arr = _read_tensor(fh)
            params[name] = ag._new(arr)
        _expect_end(fh)
        model = TransformerLM(config, params)
        fingerprint = meta["fingerprint"]
    if model.fingerprint() != fingerprint:
        raise ArtifactError(f"checkpoint fingerprint mismatch in {path}")
    model.provenance = meta.get("provenance", {})
    return model


def save_prompt(path, prompt: SoftPrompt, tuning_config_digest: str = "") -> None:
    meta = {
        "l": prompt.length,
        "d": prompt.width,
        "init_seed": prompt.init_seed,
        "init_scheme": INIT_SCHEME,
        "source_fingerprint": prompt.source_fingerprint,
        "dp_meta": prompt.dp_meta.to_dict() if prompt.dp_meta else None,
        "tuning_config_digest": tuning_config_digest,
    }
    with open(path, "wb") as fh:
        _write_header(fh, PROMPT_MAGIC, meta)
        fh.write(np.ascontiguousarray(prompt.matrix, dtype="<f4").tobytes())


def load_prompt(path) -> SoftPrompt:
    fh = _open(path)
    with _unreadable_as_artifact_error(path):
        meta = _read_header(fh, PROMPT_MAGIC)
        l, d = int(meta["l"]), int(meta["d"])
        mat = np.frombuffer(_read(fh, 4 * l * d), dtype="<f4").reshape(l, d).copy()
        _expect_end(fh)
        if meta["init_scheme"] != INIT_SCHEME:
            raise ArtifactError(f"{path}: prompt init scheme {meta['init_scheme']!r}, expected {INIT_SCHEME!r}")
        dp = DpMeta(**meta["dp_meta"]) if meta.get("dp_meta") else None
        return SoftPrompt(
            matrix=mat,
            init_seed=int(meta["init_seed"]),
            source_fingerprint=meta["source_fingerprint"],
            dp_meta=dp,
        )
