"""LM training: teacher pretraining and teacher-to-student compression.

`train_lm` runs plain next-token training (the teacher's pretraining and the
control student).  `distill` compresses the teacher with a three-term
objective: a temperature-softened KL term on the logits, the plain
next-token cross-entropy, and a cosine-distance term on final hidden states,
with configurable weights.  The student is carved out of the teacher: a
subset of layers plus the teacher's embedding and LM head, all of which
distillation trains.  Both run a fixed number of Adam steps over
length-bucketed corpus batches.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .model import ModelConfig, TransformerLM, lm_loss, param_names
from .optim import Optimizer

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class KdWeights:
    alpha_ce: float = 5.0
    alpha_lm: float = 2.0
    alpha_cos: float = 1.0
    temperature: float = 2.0

    def __post_init__(self):
        if min(self.alpha_ce, self.alpha_lm, self.alpha_cos) < 0:
            raise ValueError("loss weights must be nonnegative")
        if max(self.alpha_ce, self.alpha_lm, self.alpha_cos) <= 0:
            raise ValueError("at least one loss weight must be strictly positive")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")


@dataclass
class KdConfig:
    student_layer_indices: tuple[int, ...]
    weights: KdWeights = field(default_factory=KdWeights)
    learning_rate: float = 0.00025
    batch_size: int = 5
    max_steps: int = 400

    def __post_init__(self):
        idx = tuple(int(i) for i in self.student_layer_indices)
        if not idx or any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValueError("student_layer_indices must be non-empty and strictly increasing")
        self.student_layer_indices = idx
        if self.learning_rate <= 0 or self.batch_size <= 0 or self.max_steps <= 0:
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
    s_cfg = ModelConfig(
        n_layers=len(idx),
        d_model=t_cfg.d_model,
        n_heads=t_cfg.n_heads,
        vocab_size=t_cfg.vocab_size,
        max_seq_len=t_cfg.max_seq_len,
        tie_lm_head=t_cfg.tie_lm_head,
    )
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
    teacher_logits,
    student_logits: Tensor,
    lm_targets,
    teacher_final_hidden,
    student_final_hidden: Tensor,
    weights: KdWeights,
) -> tuple[Tensor, Tensor, Tensor, Tensor]:
    """(total, l_ce, l_lm, l_cos); gradients flow into the student terms only.

    `lm_targets` carries one target id per position, -1 where a position
    emits no target (e.g. the final position).
    """
    t_log = teacher_logits.data if isinstance(teacher_logits, Tensor) else np.asarray(teacher_logits)
    t_hid = (
        teacher_final_hidden.data
        if isinstance(teacher_final_hidden, Tensor)
        else np.asarray(teacher_final_hidden)
    )
    if t_log.shape != student_logits.shape:
        raise ValueError("teacher/student logit shapes must match")
    if t_hid.shape != student_final_hidden.shape:
        raise ValueError("teacher/student hidden shapes must match")
    tau = weights.temperature
    vocab = t_log.shape[-1]
    d = t_hid.shape[-1]
    n_pos = int(np.prod(t_log.shape[:-1]))

    # softened KL, teacher as the fixed reference
    kl = ag.kl_divergence(
        (t_log / tau).reshape(n_pos, vocab), (student_logits * (1.0 / tau)).reshape((n_pos, vocab))
    )
    l_ce = kl * (tau * tau / n_pos)

    # plain next-token cross-entropy on the student
    targets = np.asarray(lm_targets, dtype=np.int64).reshape(-1)
    if targets.size != n_pos:
        raise ValueError("lm_targets must carry one entry per position")
    lp = ag.log_softmax(student_logits, axis=-1).reshape((n_pos, vocab))
    valid = np.flatnonzero(targets >= 0)
    if valid.size == 0:
        raise ValueError("lm_targets has no valid positions")
    picked = ag.take_along_last(ag.take(lp, valid, axis=0), targets[valid])
    l_lm = -picked.mean()

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


def _lm_targets(ids: np.ndarray) -> np.ndarray:
    targets = np.full_like(ids, -1)
    targets[:, :-1] = ids[:, 1:]
    return targets


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


def train_lm(
    model: TransformerLM,
    corpus_ids: Sequence[np.ndarray],
    steps: int,
    batch_size: int,
    learning_rate: float,
    seed: int,
) -> list[dict]:
    """`steps` Adam steps of next-token loss over length-bucketed batches."""
    model.set_trainable(True)
    opt = Optimizer(model.parameters(), learning_rate=learning_rate)
    rng = np.random.default_rng(seed)
    buckets = _length_buckets(corpus_ids)
    history: list[dict] = []
    for step in range(steps):
        ids = sample_length_bucketed_batch(corpus_ids, buckets, batch_size, rng)
        opt.zero_grad()
        loss = lm_loss(model, ids)
        loss.backward()
        opt.step()
        history.append({"step": step, "loss": loss.item()})
    model.set_trainable(False)
    return history


def distill(
    teacher: TransformerLM,
    kd_corpus: Sequence[np.ndarray],
    config: KdConfig,
    seed: int,
) -> tuple[TransformerLM, list[dict]]:
    """`config.max_steps` Adam steps of the distillation loss over
    length-bucketed corpus batches."""
    if not kd_corpus:
        raise ValueError("distillation corpus is empty")
    rng = np.random.default_rng(seed)
    student = init_student_from_teacher(teacher, config)
    teacher.set_trainable(False)
    student.set_trainable(True)
    opt = Optimizer(student.parameters(), learning_rate=config.learning_rate)

    buckets = _length_buckets(kd_corpus)
    history: list[dict] = []
    for step in range(config.max_steps):
        ids = sample_length_bucketed_batch(kd_corpus, buckets, config.batch_size, rng)
        t_logits, t_hidden = teacher._forward_batch(ids, None, return_hidden=True)
        s_logits, s_hidden = student._forward_batch(ids, None, return_hidden=True)
        total, l_ce, l_lm, l_cos = distill_loss(
            t_logits, s_logits, _lm_targets(ids), t_hidden, s_hidden, config.weights
        )
        opt.zero_grad()
        total.backward()
        opt.step()
        row = {
            "step": step,
            "total": total.item(),
            "l_ce": l_ce.item(),
            "l_lm": l_lm.item(),
            "l_cos": l_cos.item(),
        }
        history.append(row)

    student.set_trainable(False)
    return student, history


def write_loss_history(path, history: Sequence[dict]) -> None:
    import csv as _csv

    if not history:
        return
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = _csv.DictWriter(fh, fieldnames=list(history[0].keys()))
        writer.writeheader()
        writer.writerows(history)
