"""Tiny decoder-only transformer with soft-prompt prepending.

Pre-norm blocks, GELU MLPs, learned positional embeddings, causal attention.
A soft prompt is an [l x d] matrix prepended at the embedding level; during
prompt tuning the model parameters stay frozen and gradient reaches the
prompt matrix only.

A forward holds its hidden state as one flat [m*l + b*T x d] matrix: the
prompt's l positions once per prompt copy, then the b rows of T token
positions.  m is 1 for a shared [l x d] prompt, b for an [b x l x d] prompt
that gives every row its own copy (how DP-SGD gets all per-example prompt
gradients from one backward), and m*l is 0 without a prompt.  Under causal
attention the prompt positions never see a token, so their activations
depend on the prompt alone and one copy serves every row that reads it, as
in prefix-tuning (Li & Liang 2021).  Layer norm, the MLP, the projections
and the residual adds work row by row on that matrix; only
`autograd.causal_attention` knows the layout: each prompt copy attends
causally within itself and never to a token, whether there is one copy or
b, and token queries attend to their row's prompt copy, then causally to
their own row.

Classification, tuning, transfer and the attacks all read one thing: the
class log-probabilities at each sequence's answer (last) position, computed
by `answer_log_probs`.  It right-pads a ragged batch to its longest row and
runs one forward.  The padding is exact: under causal attention a position
sees only itself and earlier positions, and every pad token comes after the
answer position of its row, so the answer position's value is the one the
row would get alone.  Nothing after the last block's attention reads a
position other than the answer, so that attention runs one query per row,
at its answer position (`causal_attention`'s `query_at`).  Q, K and V come
from the one projection of every position of the row and its prefix copy,
as in the other blocks; only the answer position's query attends, and the
prefix's own queries do not run there.  The residual stream is
gathered at the answer positions beside it, so the rest of that block, the
final layer norm and the LM head run on one row per sequence.  Full-logit
forwards (`lm_loss`, distillation) run every query in every block.

Each block is three fused autograd nodes (`autograd.layer_norm`,
`causal_attention`, `gelu_mlp`) plus the output projection and the
residual adds.

`ROWS_PER_FORWARD` bounds the rows of one forward.  A training graph holds
the arrays its backward reads for every row until that backward has run,
and padding a 32-row transfer batch to its longest row adds about a fifth
more positions.  In perfbench's plain POST workload the transfer sets the
run's peak resident memory, above the 69.7 MB that pretraining and
distillation reach.  Smaller chunks, each freed before the next forward,
trade time for that memory.  With the transfer's float32 graph (perfbench,
one 2-core host), 8 / 16 / 32 rows peaked at a median 70.4 / 72.1 / 77.4 MB
on post and 70.7 / 72.2 / 77.1 MB on post_dp (untraced, seeds 730-733),
and a traced transfer step on post took a median 35.7 / 29.9 / 31.1 ms
(seeds 750-755; 8 and 32 rows were each slower than 16 on 4 of the 6
seeds).  16 is the size kept: 8 rows saves about 2% of the peak and costs
about a fifth more per transfer step, and 32 rows costs 5 MB for no
faster step.
`row_chunks` sorts a batch's rows by length before it slices them, so each
chunk is padded to a length close to its own rows' rather than to the
batch's longest.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from . import autograd as ag
from .autograd import Tensor

PARAM_INIT_STD = 0.02
PROMPT_INIT_STD = 0.5
LN_EPS = 1e-5
ROWS_PER_FORWARD = 16


@dataclass(frozen=True)
class ModelConfig:
    n_layers: int
    d_model: int
    n_heads: int
    vocab_size: int
    max_seq_len: int
    tie_lm_head: bool = False

    def __post_init__(self):
        for name in ("n_layers", "d_model", "n_heads", "vocab_size", "max_seq_len"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter's shape, in checkpoint order."""
    d, v = config.d_model, config.vocab_size
    shapes = {"tok_emb": (v, d), "pos_emb": (config.max_seq_len, d)}
    for i in range(config.n_layers):
        base = f"layers.{i}."
        shapes[base + "ln1.g"] = shapes[base + "ln1.b"] = (d,)
        for w in ("wq", "wk", "wv", "wo"):
            shapes[base + "attn." + w] = (d, d)
            shapes[base + "attn." + w + "_b"] = (d,)
        shapes[base + "ln2.g"] = shapes[base + "ln2.b"] = (d,)
        shapes[base + "mlp.w1"], shapes[base + "mlp.w1_b"] = (d, 4 * d), (4 * d,)
        shapes[base + "mlp.w2"], shapes[base + "mlp.w2_b"] = (4 * d, d), (d,)
    shapes["final_ln.g"] = shapes["final_ln.b"] = (d,)
    if not config.tie_lm_head:
        shapes["lm_head"] = (d, v)
    return shapes


def param_names(config: ModelConfig) -> list[str]:
    return list(param_shapes(config))


class TransformerLM:
    """A tiny causal LM; plays either side of a teacher/student pair."""

    def __init__(self, config: ModelConfig, params: dict[str, Tensor]):
        expected = param_shapes(config)
        if list(params.keys()) != list(expected):
            missing = set(expected) ^ set(params.keys())
            raise ValueError(f"parameter set does not match config: {sorted(missing)}")
        for name, shape in expected.items():
            if params[name].shape != shape:
                raise ValueError(f"parameter {name} has shape {params[name].shape}, the config gives {shape}")
        self.config = config
        self.params = params
        self.provenance: dict = {}

    # -- bookkeeping --------------------------------------------------------

    def parameters(self) -> list[Tensor]:
        return list(self.params.values())

    def set_trainable(self, flag: bool) -> None:
        for p in self.params.values():
            p.requires_grad = flag

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        h.update(json.dumps(asdict(self.config), sort_keys=True).encode())
        for name in sorted(self.params):
            arr = self.params[name].data
            h.update(name.encode())
            h.update(str(arr.dtype).encode())
            h.update(str(arr.shape).encode())
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()

    # -- forward ------------------------------------------------------------

    def _resolve_prompt(self, prompt):
        if prompt is None:
            return None
        if isinstance(prompt, Tensor):
            mat = prompt
        elif isinstance(prompt, SoftPrompt):
            mat = ag._new(prompt.matrix)
        else:
            mat = ag._new(np.asarray(prompt))
        if mat.ndim not in (2, 3) or mat.shape[-1] != self.config.d_model:
            raise ValueError(
                f"prompt/model dimension mismatch: prompt width "
                f"{mat.shape[-1] if mat.ndim else '?'} vs d_model {self.config.d_model}"
            )
        return mat

    def _forward_batch(
        self, ids: np.ndarray, pmat: Tensor | None, return_hidden: bool, answer_at: np.ndarray | None = None
    ):
        """Logits [bsz x (l + n_tok) x vocab], or [bsz x vocab] at token index
        `answer_at[r]` of each row r when `answer_at` is given; the last
        block's MLP, the final layer norm and the head then run on those
        positions only.  The blocks run on the flat layout of the module
        docstring: m*l prefix positions, then bsz*n_tok token positions."""
        cfg = self.config
        d = cfg.d_model
        bsz, n_tok = ids.shape
        if ids.min() < 0 or ids.max() >= cfg.vocab_size:
            raise ValueError("token id out of range for vocabulary")
        m, l = (0, 0) if pmat is None else (pmat.shape[0] if pmat.ndim == 3 else 1, pmat.shape[-2])
        if m not in (0, 1, bsz):
            raise ValueError(f"{m} prompt copies for {bsz} rows")
        total = l + n_tok
        if total > cfg.max_seq_len:
            raise ValueError(f"sequence length {total} exceeds max_seq_len {cfg.max_seq_len}")

        pos = self.params["pos_emb"]
        tok = ag.take(self.params["tok_emb"], ids.reshape(-1), axis=0).reshape((bsz, n_tok, d))
        x = (tok + ag.take(pos, np.arange(l, total), axis=0)).reshape((bsz * n_tok, d))
        if l:
            prefix = (pmat + ag.take(pos, np.arange(l), axis=0)).reshape((m * l, d))
            x = ag.concat([prefix, x], axis=0)

        for i in range(cfg.n_layers):
            query_at = answer_at if i == cfg.n_layers - 1 else None
            attn = self._attention(self._layer_norm(x, f"layers.{i}.ln1"), i, bsz, (m, l), query_at)
            if query_at is not None:
                # nothing after this reads the other positions
                x = ag.take(x, m * l + np.arange(bsz) * n_tok + np.asarray(query_at, dtype=np.int64), axis=0)
            x = x + attn
            x = x + self._mlp(self._layer_norm(x, f"layers.{i}.ln2"), i)
        if answer_at is None:
            if l:
                # each row's own positions: its prefix copy, then its tokens
                rows = np.arange(bsz)[:, None]
                at = np.concatenate([rows % m * l + np.arange(l), m * l + rows * n_tok + np.arange(n_tok)], axis=1)
                x = ag.take(x, at.reshape(-1), axis=0)
            x = x.reshape((bsz, total, d))
        h = self._layer_norm(x, "final_ln")

        if cfg.tie_lm_head:
            logits = ag.matmul(h, ag.transpose(self.params["tok_emb"], (1, 0)))
        else:
            logits = ag.matmul(h, self.params["lm_head"])
        if return_hidden:
            return logits, h
        return logits

    def _layer_norm(self, x: Tensor, name: str) -> Tensor:
        return ag.layer_norm(x, self.params[name + ".g"], self.params[name + ".b"], LN_EPS)

    def _attention(self, x: Tensor, i: int, rows: int, prefix: tuple[int, int], query_at=None) -> Tensor:
        p, base = self.params, f"layers.{i}.attn."
        qkv = [p[base + name] for name in ("wq", "wk", "wv", "wq_b", "wk_b", "wv_b")]
        ctx = ag.causal_attention(x, *qkv, self.config.n_heads, rows, prefix, query_at)
        return ag.matmul(ctx, p[base + "wo"]) + p[base + "wo_b"]

    def _mlp(self, x: Tensor, i: int) -> Tensor:
        p, base = self.params, f"layers.{i}.mlp."
        return ag.gelu_mlp(x, p[base + "w1"], p[base + "w1_b"], p[base + "w2"], p[base + "w2_b"])


def init_model(config: ModelConfig, seed: int) -> TransformerLM:
    """Scaled-Gaussian init (std 0.02; residual output projections shrunk
    by 1/sqrt(2*n_layers)); layer-norm gains 1, biases 0; deterministic in
    seed."""
    rng = np.random.default_rng(seed)
    res_std = PARAM_INIT_STD / math.sqrt(2.0 * config.n_layers)
    params: dict[str, Tensor] = {}
    for name, shape in param_shapes(config).items():
        if name.endswith(".g"):
            params[name] = Tensor(np.ones(shape))
        elif name.endswith((".b", "_b")):
            params[name] = Tensor(np.zeros(shape))
        else:
            std = res_std if name.endswith(("attn.wo", "mlp.w2")) else PARAM_INIT_STD
            params[name] = Tensor(rng.normal(0.0, std, size=shape))
    return TransformerLM(config, params)


# -- soft prompts -----------------------------------------------------------


@dataclass
class DpMeta:
    epsilon: float
    delta: float
    sigma: float
    clip_norm: float

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        if self.sigma <= 0 or self.clip_norm <= 0:
            raise ValueError("sigma and clip_norm must be positive")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class SoftPrompt:
    """Trainable prompt rows plus the provenance the transfer step needs:
    `init_seed` regenerates the initial rows (`initial_prompt_matrix`)."""

    matrix: np.ndarray
    init_seed: int
    source_fingerprint: str
    dp_meta: DpMeta | None = None

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.float32)
        if self.matrix.ndim != 2 or self.matrix.shape[0] < 1:
            raise ValueError("prompt matrix must be [l x d] with l >= 1")

    @property
    def length(self) -> int:
        return self.matrix.shape[0]

    @property
    def width(self) -> int:
        return self.matrix.shape[1]


def initial_prompt_matrix(d_model: int, length: int, seed: int) -> np.ndarray:
    """Regenerable initial prompt rows, N(0, PROMPT_INIT_STD^2) per entry;
    the transfer step re-derives these from the seed."""
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, PROMPT_INIT_STD, size=(length, d_model)).astype(np.float32)


def init_prompt(model: TransformerLM, length: int, seed: int) -> SoftPrompt:
    mat = initial_prompt_matrix(model.config.d_model, length, seed)
    return SoftPrompt(matrix=mat, init_seed=seed, source_fingerprint=model.fingerprint())


# -- losses and classification ---------------------------------------------


def next_token_loss(logits: Tensor, ids: np.ndarray) -> Tensor:
    """Mean cross-entropy of the [b x T x V] `logits` at each position
    against the next of the [b x T] `ids`; the last position has no target."""
    if ids.shape[1] < 2:
        raise ValueError("the next-token loss needs at least 2 tokens")
    pred = ag.narrow(logits, 1, 0, ids.shape[1] - 1)
    lp = ag.log_softmax(pred, axis=-1)
    return -ag.take_along_last(lp, ids[:, 1:]).mean()


def lm_loss(model: TransformerLM, token_ids) -> Tensor:
    """`model`'s next-token loss on the [b x T] batch `token_ids`."""
    ids = np.asarray(token_ids, dtype=np.int64)
    return next_token_loss(model._forward_batch(ids, None, return_hidden=False), ids)


def label_set_log_probability(logits: Tensor, verbalizers: Sequence[Sequence[int]]) -> Tensor:
    """Per-class log probability: average softmax mass over each class's
    verbalizer tokens, renormalized across classes.  Computed in log space."""
    _validate_verbalizers(verbalizers)
    ls = ag.log_softmax(logits, axis=-1)
    cols = []
    for ids in verbalizers:
        ids = list(ids)
        sel = ag.take(ls, ids, axis=-1)
        avg = ag.logsumexp(sel, axis=-1) - math.log(len(ids))
        cols.append(avg)
    raw = ag.concat(cols, axis=-1)
    return raw - ag.logsumexp(raw, axis=-1)


def _validate_verbalizers(verbalizers: Sequence[Sequence[int]]) -> None:
    if not verbalizers:
        raise ValueError("verbalizers must be non-empty")
    seen: set[int] = set()
    for ids in verbalizers:
        ids = list(ids)
        if not ids:
            raise ValueError("each class needs at least one verbalizer token")
        if seen.intersection(ids):
            raise ValueError("verbalizer sets must be pairwise disjoint")
        seen.update(ids)


def answer_log_probs(model: TransformerLM, sequences: Sequence[np.ndarray], verbalizers, prompt=None) -> Tensor:
    """[n x C] class log distribution at each sequence's answer (last)
    position, from one forward over the rows right-padded to the longest
    (exact; see the module docstring).  C is the number of classes.
    `prompt` may be [l x d] or one [l x d] copy per row, [n x l x d]."""
    lengths = np.array([len(s) for s in sequences], dtype=np.int64)
    ids = np.zeros((len(sequences), lengths.max()), dtype=np.int64)
    for row, seq in zip(ids, sequences):
        row[: len(seq)] = seq
    logits = model._forward_batch(ids, model._resolve_prompt(prompt), return_hidden=False, answer_at=lengths - 1)
    return label_set_log_probability(logits, verbalizers)


def row_chunks(lengths: Sequence[int]):
    """The positions of a batch's rows in order of length (stable), in
    consecutive slices of at most ROWS_PER_FORWARD, so that each chunk is
    padded to a length close to its own rows'."""
    order = np.argsort(np.asarray(lengths, dtype=np.int64), kind="stable")
    for start in range(0, len(order), ROWS_PER_FORWARD):
        yield order[start : start + ROWS_PER_FORWARD]


def class_log_probs_batch(
    model: TransformerLM,
    sequences: Sequence[np.ndarray],
    verbalizers,
    prompt=None,
) -> np.ndarray:
    """[n x C] answer-position class log distributions as a float64 array in
    input order, from `answer_log_probs` over the length-sorted `row_chunks`.
    `prompt` is one [l x d] prompt for every row."""
    _validate_verbalizers(verbalizers)
    pmat = model._resolve_prompt(prompt)
    if pmat is not None and pmat.ndim == 3:
        # the rows are reordered into chunks, so per-row copies would not follow them
        raise ValueError(
            "class_log_probs_batch takes one [l x d] prompt; score per-row prompts with answer_log_probs"
        )
    out = np.zeros((len(sequences), len(verbalizers)))
    for chunk in row_chunks([len(s) for s in sequences]):
        out[chunk] = answer_log_probs(model, [sequences[i] for i in chunk], verbalizers, pmat).data
    return out


def classify_batch(model, sequences, verbalizers, prompt=None) -> np.ndarray:
    """Predicted class ids for a list of token sequences."""
    return np.argmax(class_log_probs_batch(model, sequences, verbalizers, prompt=prompt), axis=1)
