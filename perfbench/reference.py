"""Reference computations written apart from `promptxfer`.

Everything here re-derives, from the file formats and the method's
definitions, a number the pipeline reports: artifact readers, a float64
forward of the tiny transformer, the label-set class log-probability, the
KL-mix transfer objective, an RDP accountant for the subsampled Gaussian
mechanism and a pairwise AUC.  Nothing imports the program.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np
from scipy import special

LN_EPS = 1e-5
PROMPT_INIT_STD = 0.5


# -- artifact readers (PSTL checkpoints, PSPA prompts) --------------------------


def _read_header(fh, magic: bytes) -> dict:
    if fh.read(4) != magic:
        raise ValueError(f"not a {magic.decode()} file")
    (version,) = struct.unpack("<H", fh.read(2))
    if version != 1:
        raise ValueError(f"unknown format version {version}")
    (meta_len,) = struct.unpack("<I", fh.read(4))
    return json.loads(fh.read(meta_len).decode("utf-8"))


def read_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    """(meta, float64 parameter arrays) of a PSTL file; no fingerprint check."""
    params: dict[str, np.ndarray] = {}
    with open(path, "rb") as fh:
        meta = _read_header(fh, b"PSTL")
        (count,) = struct.unpack("<I", fh.read(4))
        for _ in range(count):
            (name_len,) = struct.unpack("<H", fh.read(2))
            name = fh.read(name_len).decode("utf-8")
            tag, ndim = struct.unpack("<BB", fh.read(2))
            if tag != 0:
                raise ValueError(f"{path}: unknown dtype tag {tag}")
            shape = struct.unpack(f"<{ndim}I", fh.read(4 * ndim))
            n = int(np.prod(shape)) if ndim else 1
            params[name] = np.frombuffer(fh.read(4 * n), dtype="<f4").reshape(shape).astype(np.float64)
    return meta, params


def read_prompt(path) -> tuple[dict, np.ndarray]:
    """(meta, float64 [l x d] matrix) of a PSPA file."""
    with open(path, "rb") as fh:
        meta = _read_header(fh, b"PSPA")
        l, d = int(meta["l"]), int(meta["d"])
        mat = np.frombuffer(fh.read(4 * l * d), dtype="<f4").reshape(l, d).astype(np.float64)
    return meta, mat


def start_prompt(init_seed: int, length: int, d_model: int) -> np.ndarray:
    """The regenerated Gaussian initial rows a transfer starts from."""
    rng = np.random.default_rng(init_seed)
    return rng.normal(0.0, PROMPT_INIT_STD, size=(length, d_model)).astype(np.float32).astype(np.float64)


# -- float64 forward -----------------------------------------------------------


def _logsumexp(x: np.ndarray, axis: int = -1, keepdims: bool = False) -> np.ndarray:
    m = np.max(x, axis=axis, keepdims=True)
    out = m + np.log(np.sum(np.exp(x - m), axis=axis, keepdims=True))
    return out if keepdims else np.squeeze(out, axis=axis)


class Reference:
    """Pre-norm causal transformer in float64, one sequence at a time."""

    def __init__(self, meta: dict, params: dict[str, np.ndarray]):
        cfg = meta["config"]
        self.n_layers = int(cfg["n_layers"])
        self.n_heads = int(cfg["n_heads"])
        self.d = int(cfg["d_model"])
        self.p = params
        self.head = params["tok_emb"].T if cfg["tie_lm_head"] else params["lm_head"]

    def _ln(self, x: np.ndarray, name: str) -> np.ndarray:
        mu = x.mean(axis=-1, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
        return (x - mu) / np.sqrt(var + LN_EPS) * self.p[name + ".g"] + self.p[name + ".b"]

    def _attention(self, x: np.ndarray, i: int) -> np.ndarray:
        p, base = self.p, f"layers.{i}.attn."
        n, dh = x.shape[0], self.d // self.n_heads

        def heads(w):
            return (x @ p[base + w] + p[base + w + "_b"]).reshape(n, self.n_heads, dh).transpose(1, 0, 2)

        q, k, v = heads("wq"), heads("wk"), heads("wv")
        scores = q @ k.transpose(0, 2, 1) / math.sqrt(dh)
        scores = np.where(np.tril(np.ones((n, n), dtype=bool)), scores, -np.inf)
        scores = scores - scores.max(axis=-1, keepdims=True)
        weights = np.exp(scores)
        weights /= weights.sum(axis=-1, keepdims=True)
        ctx = (weights @ v).transpose(1, 0, 2).reshape(n, self.d)
        return ctx @ p[base + "wo"] + p[base + "wo_b"]

    def _mlp(self, x: np.ndarray, i: int) -> np.ndarray:
        p, base = self.p, f"layers.{i}.mlp."
        h = x @ p[base + "w1"] + p[base + "w1_b"]
        h = h * 0.5 * (1.0 + special.erf(h / math.sqrt(2.0)))
        return h @ p[base + "w2"] + p[base + "w2_b"]

    def answer_logits(self, ids: np.ndarray, prompt: np.ndarray | None) -> np.ndarray:
        x = self.p["tok_emb"][np.asarray(ids)]
        if prompt is not None:
            x = np.concatenate([prompt, x], axis=0)
        x = x + self.p["pos_emb"][: x.shape[0]]
        for i in range(self.n_layers):
            x = x + self._attention(self._ln(x, f"layers.{i}.ln1"), i)
            x = x + self._mlp(self._ln(x, f"layers.{i}.ln2"), i)
        return self._ln(x, "final_ln")[-1] @ self.head

    def class_log_probs(self, sequences, verbalizers, prompt: np.ndarray | None = None) -> np.ndarray:
        """[n x classes]: mean softmax mass over each class's verbalizer
        tokens at the answer position, renormalized across classes."""
        out = np.empty((len(sequences), len(verbalizers)))
        for row, ids in enumerate(sequences):
            logits = self.answer_logits(ids, prompt)
            ls = logits - _logsumexp(logits)
            raw = np.array([_logsumexp(ls[list(v)]) - math.log(len(v)) for v in verbalizers])
            out[row] = raw - _logsumexp(raw)
        return out


# -- transfer objective --------------------------------------------------------


def _kl(ref: np.ndarray, adj: np.ndarray) -> np.ndarray:
    """Row-wise KL(softmax(ref) || softmax(adj))."""
    lp = ref - _logsumexp(ref, keepdims=True)
    lq = adj - _logsumexp(adj, keepdims=True)
    return np.sum(np.exp(lp) * (lp - lq), axis=-1)


def kl_mix_objective(s_prompted, s_plain, t_plain, t_prompted, alpha: float) -> float:
    """Mean over rows of (1-alpha)*KL(student prompted || teacher prompted)
    + alpha*KL(student shift || teacher shift), shifts renormalized."""
    l1 = _kl(s_prompted, t_prompted)
    l2 = _kl(s_prompted - s_plain, t_prompted - t_plain)
    return float(np.mean((1.0 - alpha) * l1 + alpha * l2))


# -- RDP accountant (integer orders, exact binomial expansion) ------------------

ORDERS = tuple(range(2, 129))


def _log_moment(q: float, sigma: float, alpha: int) -> float:
    k = np.arange(alpha + 1, dtype=np.float64)
    log_binom = (
        math.lgamma(alpha + 1)
        - np.array([math.lgamma(i + 1) for i in k])
        - np.array([math.lgamma(alpha - i + 1) for i in k])
    )
    terms = log_binom + k * math.log(q) + (alpha - k) * math.log1p(-q) + (k * k - k) / (2.0 * sigma**2)
    return float(_logsumexp(terms))


def rdp_spent_epsilon(sigma: float, q: float, steps: int, delta: float) -> float:
    """Spent epsilon of `steps` Poisson-subsampled Gaussian steps (Mironov
    et al. 2019), converted by min_a T*RDP(a) + log(1/delta)/(a-1)."""
    if q >= 1.0:
        rdp = [a / (2.0 * sigma**2) for a in ORDERS]
    else:
        rdp = [_log_moment(q, sigma, a) / (a - 1) for a in ORDERS]
    return min(steps * r + math.log(1.0 / delta) / (a - 1) for a, r in zip(ORDERS, rdp))


# -- attack --------------------------------------------------------------------


def pairwise_auc(scores, members) -> float:
    """Share of (member, non-member) pairs the member outranks; ties 1/2."""
    scores = np.asarray(scores, dtype=np.float64)
    members = np.asarray(members, dtype=bool)
    pos, neg = scores[members], scores[~members]
    wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
    return float(wins / (pos.size * neg.size))
