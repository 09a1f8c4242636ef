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

The transfer's forward is the one computation that runs in float64.  The
models are trained in float32.  `transfer_prompt` runs each model's
forwards on a float64 model (`_with_float64_embeddings`) that casts the
token and position embeddings alone and shares every other weight, as the
same array, with the frozen float32 model.  The residual stream starts from the
embeddings, so every activation is float64, and a float32 weight promotes
to float64 exactly: each forward equals, bit for bit, that of a model cast
to float64 whole.  The student's float64 model gives the two student
sides, the teacher's the plain teacher's side and every prompted-teacher
forward.  Each holds only its float64 embeddings (about 60 kB for
perfbench's models), so both are made at the start and kept.

The shift term compares s_p - s_0 with t_p - t_0, differences of near-equal
log-probabilities, and float32 forwards lose most of their digits to that
cancellation.  On the benchmark's plain POST workload (perfbench `post`,
seeds 0-5) a float32 transfer logged a first objective 4.7e-6 to 7.1e-4
(relative) off a float64 reference; with the float64 forward it is at most
3.2e-11 off (`post` seeds 0-9, `post_dp` seeds 0-4).

The gradient does not need float64.  The target prompt is an ordinary
float32 leaf with float32 Adam state, so its forward in front of the
float64 teacher, and every logged objective, is float64, while its graph is
float32 (`autograd`: gradients take the leaf's dtype).  That graph keeps
the weights' own float32 arrays, about half the bytes of a float64 graph,
and runs its backward faster.  One step's float32 gradient over
perfbench's 32-row public batch is 1.4e-7 to 4.5e-6 (relative, 2-norm) off
a float64 leaf's at the start prompt, and at most 1.2e-4 off at the
transferred prompt, where the gradient is 10-100 times smaller (`post`
seeds 0-5, `post_dp` seeds 3-4).  A float64 leaf
(`Tensor(..., dtype=np.float64)`) gives float64 gradients through the same
code.  The caller's models are left untouched, and the returned prompt is
float32 with the float32 teacher's fingerprint.

With `alpha` None the transfer takes the heuristic (`heuristic_alpha`)
from its constant sides at no extra forward: the plain teacher's and the
prompted student's argmax accuracy on the public rows, random guess 1/C.
Where it is undefined (the student at exactly 1/C) a warning is logged and
alpha is 0.5.  No private data is read, so a DP source prompt's guarantee
carries over to p_t.
"""

from __future__ import annotations

import logging
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

log = logging.getLogger(__name__)


def heuristic_alpha(zero_shot: float, compressed: float, random_guess: float) -> float:
    """clamp((ZS - RG) / (C - RG), 0, 1) over accuracies as fractions in
    [0, 1]: more weight on the shift term when the target model is already
    strong relative to the compressed one.  0.5, with a warning, where the
    compressed accuracy is the random guess and the quotient is undefined."""
    if compressed == random_guess:
        log.warning("alpha heuristic undefined (compressed == random guess); falling back to 0.5")
        return 0.5
    return min(max((zero_shot - random_guess) / (compressed - random_guess), 0.0), 1.0)


@dataclass
class TransferConfig:
    steps: int = 1000
    learning_rate: float = 0.001
    batch_size: int = 32

    def __post_init__(self):
        if not (self.steps >= 0 and self.batch_size > 0 and self.learning_rate > 0):  # NaN fails it
            raise ValueError("steps must be >= 0; batch_size and learning_rate positive")


def transfer_loss(
    teacher_prompted_logits: Tensor,
    teacher_plain_logits: np.ndarray,
    student_prompted_logits: np.ndarray,
    student_plain_logits: np.ndarray,
    alpha: float,
) -> tuple[Tensor, Tensor, Tensor]:
    """(total, l1, l2) over the class space, for one example ([C]
    vectors) or summed over the rows of [n x C] arrays.

    l1 imitates the prompted student's distribution; l2 aligns the
    prompt-induced shift (softmax-renormalized logit deltas).  Gradient
    flows only into teacher_prompted_logits, a tensor; the other three
    sides are constant arrays.
    """
    s_p, s_0, t_0 = student_prompted_logits, student_plain_logits, teacher_plain_logits
    for name, vec in (("teacher_plain", t_0), ("student_prompted", s_p), ("student_plain", s_0)):
        if not np.all(np.isfinite(vec)):
            raise ValueError(f"{name} logits contain non-finite values")
    l1 = ag.kl_divergence(s_p, teacher_prompted_logits)
    l2 = ag.kl_divergence(s_p - s_0, teacher_prompted_logits - ag._new(t_0))
    total = l1 * (1.0 - alpha) + l2 * alpha
    return total, l1, l2


def _transfer_chunk_backward(teacher, p_t, seqs, rows, sides, alpha, verbalizers, scale) -> np.ndarray:
    """Back-propagate scale * transfer_loss over `rows` into p_t; returns the
    unscaled (total, l1, l2).  The graph is freed on return."""
    s_prompted, s_plain, t_plain = (side[rows] for side in sides)
    t_prompted = answer_log_probs(teacher, [seqs[i] for i in rows], verbalizers, p_t)
    total, l1, l2 = transfer_loss(t_prompted, t_plain, s_prompted, s_plain, alpha)
    (total * scale).backward()
    return np.array([total.item(), l1.item(), l2.item()])


def transfer_prompt(
    teacher: TransformerLM,
    student: TransformerLM,
    p_s: SoftPrompt,
    public_data: LabeledDataset,
    config: TransferConfig,
    alpha: float | None,
    seed: int,
) -> tuple[SoftPrompt, list[dict], float]:
    """Derive the teacher-side prompt from p_s using public data only.

    `alpha` in [0, 1] weights the shift term l2 against the imitation term
    l1 (`transfer_loss`); None takes the heuristic alpha on `public_data`
    (module docstring).  `seed` seeds the order in which the public rows
    are batched.  Private data is deliberately not an argument; dp_meta
    rides along unchanged (post-processing).  Returns (p_t, per-step loss
    history, the alpha used).
    """
    if alpha is not None and not 0 <= alpha <= 1:
        raise ValueError("alpha must lie in [0, 1]")
    d = teacher.config.d_model
    if student.config.d_model != d or p_s.width != d:
        raise ValueError("prompt/model dimension mismatch")
    if len(public_data) == 0:
        raise ValueError("public dataset is empty")

    # static sides: prompted/plain student and plain teacher, all constants
    verbalizers = public_data.verbalizers
    seqs = public_data.sequences
    student64, teacher64 = _with_float64_embeddings(student), _with_float64_embeddings(teacher)
    sides = (
        class_log_probs_batch(student64, seqs, verbalizers, prompt=p_s.matrix),
        class_log_probs_batch(student64, seqs, verbalizers),
        class_log_probs_batch(teacher64, seqs, verbalizers),
    )
    if alpha is None:  # from the plain teacher's and the prompted student's public accuracy
        zs, compressed = (float(np.mean(np.argmax(s, axis=1) == public_data.labels)) for s in (sides[2], sides[0]))
        alpha = heuristic_alpha(zs, compressed, 1.0 / public_data.n_classes)
    alpha = float(alpha)

    p_t = Tensor(initial_prompt_matrix(d, p_s.length, p_s.init_seed), requires_grad=True)
    opt = Optimizer([p_t], learning_rate=config.learning_rate)
    rng = np.random.default_rng(seed)
    n = len(public_data)
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
            _transfer_chunk_backward(teacher64, p_t, seqs, idx[pos], sides, alpha, verbalizers, scale)
            for pos in row_chunks([len(seqs[i]) for i in idx])
        )
        opt.step()
        total, l1, l2 = sums / len(idx)
        history.append({"step": step, "total": float(total), "l1": float(l1), "l2": float(l2)})

    p_t_prompt = SoftPrompt(
        matrix=p_t.data,
        init_seed=p_s.init_seed,
        source_fingerprint=teacher.fingerprint(),
        dp_meta=p_s.dp_meta,
    )
    return p_t_prompt, history, alpha


def _with_float64_embeddings(model: TransformerLM) -> TransformerLM:
    """`model` with float64 token and position embeddings, frozen: no
    parameter requires a gradient.  Every other parameter is a frozen tensor
    over `model`'s own float32 array.  The residual stream starts from the
    embeddings, so every forward runs in float64, and each matmul or
    elementwise op promotes a float32 weight to float64 exactly."""
    return TransformerLM(
        model.config,
        {
            name: ag._new(p.data.astype(np.float64) if name in ("tok_emb", "pos_emb") else p.data)
            for name, p in model.params.items()
        },
    )

