"""LM training: teacher pretraining, distillation and the control student.

One loop trains every LM: `train_lm` runs a fixed number of Adam steps on
all of a model's parameters over length-bucketed corpus batches, each
step minimising the per-batch loss it is handed.  Pretraining and the
control student hand it the next-token loss (`lm_objective`).
Distillation (`distill`) is the student carved out of the teacher (a
subset of its layers plus its embedding, norms and LM head) trained by
`train_lm` on the triple loss of DistilBERT (Sanh et al. 2019): a
temperature-softened KL term on the logits, the student's own next-token
loss and a cosine-distance term on final hidden states, with configurable
weights (`distill_loss`).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .model import TransformerLM, lm_loss, next_token_loss, param_names
from .optim import Optimizer

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class KdWeights:
    alpha_ce: float = 5.0
    alpha_lm: float = 2.0
    alpha_cos: float = 1.0
    temperature: float = 2.0

    def __post_init__(self):
        # each check is written so that NaN fails it
        weights = (self.alpha_ce, self.alpha_lm, self.alpha_cos)
        if not all(w >= 0 for w in weights):
            raise ValueError("loss weights must be nonnegative")
        if not any(w > 0 for w in weights):
            raise ValueError("at least one loss weight must be strictly positive")
        if not self.temperature > 0:
            raise ValueError("temperature must be positive")


@dataclass
class KdConfig:
    student_layer_indices: tuple[int, ...] | None = None  # None: `default_layer_indices`
    weights: KdWeights = field(default_factory=KdWeights)
    learning_rate: float = 0.00025
    batch_size: int = 5
    max_steps: int = 400

    def __post_init__(self):
        idx = self.student_layer_indices
        if idx is not None and (not idx or idx[0] < 0 or any(b <= a for a, b in zip(idx, idx[1:]))):
            raise ValueError("student_layer_indices must be non-empty, nonnegative and strictly increasing")
        if not (self.learning_rate > 0 and self.batch_size > 0 and self.max_steps > 0):  # NaN fails it
            raise ValueError("learning_rate, batch_size and max_steps must be positive")


def default_layer_indices(teacher_layers: int, student_layers: int) -> tuple[int, ...]:
    """First ceil(k/2) and last floor(k/2) teacher layers."""
    if not 0 < student_layers <= teacher_layers:
        raise ValueError("student must have between 1 and teacher_layers layers")
    head = (student_layers + 1) // 2
    tail = student_layers - head
    idx = list(range(head)) + list(range(teacher_layers - tail, teacher_layers))
    return tuple(idx)


def init_student_from_teacher(teacher: TransformerLM, config: KdConfig) -> TransformerLM:
    """Student = selected teacher layers + teacher embedding, norms, and head."""
    t_cfg = teacher.config
    idx = config.student_layer_indices
    if idx[-1] >= t_cfg.n_layers:
        raise ValueError(f"layer index {idx[-1]} out of range for a {t_cfg.n_layers}-layer teacher")
    s_cfg = replace(t_cfg, n_layers=len(idx))
    params: dict[str, Tensor] = {}
    for name in param_names(s_cfg):
        if name.startswith("layers."):
            _, s_i, rest = name.split(".", 2)
            src = f"layers.{idx[int(s_i)]}.{rest}"
        else:
            src = name
        params[name] = ag._new(teacher.params[src].data.copy())
    student = TransformerLM(s_cfg, params)
    student.provenance = {"teacher_fingerprint": teacher.fingerprint(), "layer_indices": list(idx)}
    return student


def distill_loss(
    teacher_logits: np.ndarray,
    student_logits: Tensor,
    ids: np.ndarray,
    teacher_final_hidden: np.ndarray,
    student_final_hidden: Tensor,
    weights: KdWeights,
) -> tuple[Tensor, Tensor, Tensor, Tensor]:
    """(total, l_ce, l_lm, l_cos) on the [b x T x V] logits and [b x T x d]
    final hidden states of the [b x T] batch `ids`: the teacher's as constant
    arrays, the student's as tensors, into which the gradients flow.  l_lm is
    the student's `next_token_loss` on `ids`."""
    t_log, t_hid = teacher_logits, teacher_final_hidden
    if t_log.shape != student_logits.shape:
        raise ValueError("teacher/student logit shapes must match")
    if t_hid.shape != student_final_hidden.shape:
        raise ValueError("teacher/student hidden shapes must match")
    ids = np.asarray(ids, dtype=np.int64)
    if ids.shape != t_log.shape[:-1]:
        raise ValueError("ids must carry one token per logit position")
    tau = weights.temperature
    vocab = t_log.shape[-1]
    d = t_hid.shape[-1]
    n_pos = int(np.prod(t_log.shape[:-1]))

    # softened KL, teacher as the fixed reference
    kl = ag.kl_divergence(
        (t_log / tau).reshape(n_pos, vocab), (student_logits * (1.0 / tau)).reshape((n_pos, vocab))
    )
    l_ce = kl * (tau * tau / n_pos)

    l_lm = next_token_loss(student_logits, ids)

    # cosine distance between final hidden states
    t_flat = t_hid.reshape(n_pos, d)
    s_flat = student_final_hidden.reshape((n_pos, d))
    t_norm = np.linalg.norm(t_flat, axis=-1)
    s_norm_data = np.linalg.norm(s_flat.data, axis=-1)
    good = np.flatnonzero((t_norm > 1e-12) & (s_norm_data > 1e-12))
    n_bad = n_pos - good.size
    if n_bad:
        log.warning("cosine loss: %d zero-norm hidden positions treated as distance 1", n_bad)
    if good.size:
        s_good = ag.take(s_flat, good, axis=0)
        t_good = t_flat[good]
        dots = ag.tsum(ag.mul(s_good, ag._new(t_good)), axis=-1)
        s_norms = ag.tsum(s_good * s_good, axis=-1) ** 0.5
        cos = ag.div(dots, ag.mul(s_norms, ag._new(t_norm[good])))
        l_cos = (ag.tsum(1.0 - cos) + float(n_bad)) * (1.0 / n_pos)
    else:
        l_cos = ag._new(np.asarray(1.0, dtype=s_flat.data.dtype))

    total = l_ce * weights.alpha_ce + l_lm * weights.alpha_lm + l_cos * weights.alpha_cos
    return total, l_ce, l_lm, l_cos


def _length_buckets(sequences: Sequence[np.ndarray]) -> list[np.ndarray]:
    buckets: dict[int, list[int]] = {}
    for i, seq in enumerate(sequences):
        buckets.setdefault(len(seq), []).append(i)
    return [np.asarray(v) for _, v in sorted(buckets.items())]


def sample_length_bucketed_batch(
    sequences: Sequence[np.ndarray],
    buckets: list[np.ndarray],
    batch_size: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Batch of equal-length sequences; bucket chosen proportionally to size."""
    sizes = np.array([len(b) for b in buckets], dtype=np.float64)
    bucket = buckets[rng.choice(len(buckets), p=sizes / sizes.sum())]
    take = min(batch_size, len(bucket))
    rows = bucket[rng.choice(len(bucket), size=take, replace=False)]
    return np.stack([sequences[i] for i in rows])


def lm_objective(model: TransformerLM) -> Callable:
    """`train_lm`'s loss for plain next-token training of `model`."""

    def loss(ids: np.ndarray) -> tuple[Tensor, dict]:
        total = lm_loss(model, ids)
        return total, {"loss": total}

    return loss


def train_lm(
    model: TransformerLM,
    corpus_ids: Sequence[np.ndarray],
    steps: int,
    batch_size: int,
    learning_rate: float,
    seed: int,
    loss: Callable,
) -> list[dict]:
    """`steps` Adam steps on every parameter of `model`, each minimising
    `loss(ids) -> (total, terms)` on one length-bucketed corpus batch; the
    history row of a step is its number and its `terms` as floats."""
    if not corpus_ids:
        raise ValueError("the training corpus is empty")
    model.set_trainable(True)
    opt = Optimizer(model.parameters(), learning_rate=learning_rate)
    rng = np.random.default_rng(seed)
    buckets = _length_buckets(corpus_ids)
    history: list[dict] = []
    for step in range(steps):
        ids = sample_length_bucketed_batch(corpus_ids, buckets, batch_size, rng)
        opt.zero_grad()
        total, terms = loss(ids)
        total.backward()
        opt.step()
        history.append({"step": step, **{name: term.item() for name, term in terms.items()}})
    model.set_trainable(False)
    return history


def distill(
    teacher: TransformerLM,
    kd_corpus: Sequence[np.ndarray],
    config: KdConfig,
    seed: int,
) -> tuple[TransformerLM, list[dict]]:
    """The student carved from `teacher`, after `train_lm` with the
    distillation loss."""
    student = init_student_from_teacher(teacher, config)
    teacher.set_trainable(False)

    def loss(ids: np.ndarray) -> tuple[Tensor, dict]:
        t_logits, t_hidden = teacher._forward_batch(ids, None, return_hidden=True)
        s_logits, s_hidden = student._forward_batch(ids, None, return_hidden=True)
        total, l_ce, l_lm, l_cos = distill_loss(t_logits.data, s_logits, ids, t_hidden.data, s_hidden, config.weights)
        return total, {"total": total, "l_ce": l_ce, "l_lm": l_lm, "l_cos": l_cos}

    history = train_lm(student, kd_corpus, config.max_steps, config.batch_size, config.learning_rate, seed, loss)
    return student, history
