"""Soft prompt tuning on a frozen model, plain or with per-example DP-SGD.

The DP path follows the clip-sum-noise recipe: per-example gradients over
the prompt matrix are clipped to norm c, summed, perturbed with Gaussian
noise of std sigma*c per coordinate, and normalized by the expected batch
size q*N under Poisson subsampling.

Per-example gradients come from one backward: each row of a chunk reads its
own copy of the prompt (a [k x l x d] leaf, whose k*l prompt positions the
forward runs once each), so the gradient of the summed loss with respect to
copy r is exactly row r's gradient.  Plain tuning passes the shared [l x d]
prompt, whose l positions the forward runs once per chunk.  Attention treats
both alike: each copy attends within itself, and each row's tokens read
their copy's keys and values.

Every step runs the length-sorted `model.row_chunks` of its batch, at most
`model.ROWS_PER_FORWARD` rows each, each forward and backward inside its
own function call, so a chunk's graph is freed before the next chunk's
forward; leaf gradients accumulate across chunks.

Plain and DP tuning run one step loop and differ only in how a step draws
its rows and forms the prompt's `.grad`, which one Adam step then reads:
plain tuning walks a fresh permutation of the set each epoch in batches of
`batch_size`, DP-SGD draws a Poisson lot at rate q each step
(`promptdpsgd_step`).  An epoch is ceil(N / batch_size) steps for both,
as `make_dp_params` counts T.  Both record the same history row every
`eval_every` epochs and after the last step: the steps so far, the mean
per-example loss the training forwards computed since the previous row
(NaN if they drew no row), and the train accuracy from one
`classify_batch` pass at the row's prompt.  `eval_every` 0 records no row
and runs no such pass, for callers that read only the tuned prompt, such
as LiRA's shadow prompts; it draws nothing from the tuning RNG either
way, so the prompt is the same.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from . import autograd as ag
from .accountant import calibrate_sigma, rdp_epsilon
from .autograd import Tensor
from .corpus import LabeledDataset
from .model import (
    DpMeta,
    SoftPrompt,
    TransformerLM,
    answer_log_probs,
    classify_batch,
    row_chunks,
)
from .optim import Optimizer


@dataclass
class DpParams:
    clip_norm: float
    noise_multiplier: float
    sample_rate: float
    steps: int
    epsilon: float
    delta: float

    def __post_init__(self):
        # each check is written so that NaN fails it
        if not (self.clip_norm > 0 and self.noise_multiplier > 0):
            raise ValueError("clip_norm and noise_multiplier must be positive")
        if not 0 < self.sample_rate <= 1:
            raise ValueError("sample_rate must lie in (0, 1]")
        if not self.steps >= 0:
            raise ValueError("steps must be nonnegative")
        if not (self.epsilon > 0 and 0 < self.delta < 1):
            raise ValueError("epsilon must be positive and delta in (0, 1)")

    def spent_epsilon(self) -> float:
        return rdp_epsilon(self.noise_multiplier, self.sample_rate, self.steps, self.delta)


@dataclass
class TuneConfig:
    epochs: int = 20
    learning_rate: float = 0.001
    batch_size: int = 32
    dp: DpParams | None = None
    eval_every: int = 1  # epochs of ceil(N / batch_size) steps between history rows; 0: none

    def __post_init__(self):
        if not (self.epochs >= 0 and self.batch_size > 0 and self.learning_rate > 0):  # NaN fails it
            raise ValueError("epochs must be >= 0; batch_size and learning_rate positive")
        if self.eval_every < 0:
            raise ValueError("eval_every must be >= 0 (0 records no history)")

    def digest(self, seed: int) -> str:
        """Hash of the settings a tuning run with `seed` used."""
        blob = {
            "epochs": self.epochs,
            "learning_rate": self.learning_rate,
            "batch_size": self.batch_size,
            "dp": asdict(self.dp) if self.dp else None,
            "seed": seed,
        }
        return hashlib.sha256(json.dumps(blob, sort_keys=True).encode()).hexdigest()[:16]


def default_delta(dataset_size: int) -> float:
    """1/(10*N) rounded to one significant figure."""
    if dataset_size <= 0:
        raise ValueError("dataset size must be positive")
    raw = 1.0 / (10.0 * dataset_size)
    exponent = math.floor(math.log10(raw))
    return round(raw, -exponent)


def make_dp_params(
    dataset_size: int,
    batch_size: int,
    epochs: int,
    epsilon: float,
    delta: float | None = None,
    clip_norm: float = 1.0,
) -> DpParams:
    """Poisson rate q = batch/N, T = epochs * ceil(N/batch), sigma calibrated
    so the spent budget never exceeds epsilon."""
    if delta is None:
        delta = default_delta(dataset_size)
    q = min(1.0, batch_size / dataset_size)
    steps = epochs * math.ceil(dataset_size / batch_size)
    sigma = calibrate_sigma(epsilon, delta, q, steps)
    return DpParams(
        clip_norm=clip_norm,
        noise_multiplier=sigma,
        sample_rate=q,
        steps=steps,
        epsilon=epsilon,
        delta=delta,
    )


def clip_gradient(g: np.ndarray, c: float) -> np.ndarray:
    """g * min(1, c / ||g||_2), for each row of g when g is 2-D; zero rows
    pass through."""
    if not c > 0:  # NaN fails it
        raise ValueError("clip norm must be positive")
    norms = np.linalg.norm(g, axis=-1, keepdims=True)
    return g * (c / np.maximum(norms, c))


def _class_nll_backward(model: TransformerLM, prompt: Tensor, dataset: LabeledDataset, rows, scale: float) -> float:
    """Back-propagate scale * (summed class cross-entropy over `rows`) into the
    prompt leaf; returns the unscaled sum.  The graph is freed on return."""
    lp = answer_log_probs(model, [dataset.sequences[i] for i in rows], dataset.verbalizers, prompt)
    loss = -ag.take_along_last(lp, dataset.labels[rows]).sum()
    (loss * scale).backward()
    return loss.item()


def promptdpsgd_step(
    model: TransformerLM,
    prompt_var: Tensor,
    dataset: LabeledDataset,
    sampled_indices: Sequence[int],
    dp: DpParams,
    rng: np.random.Generator,
) -> float:
    """One DP gradient into `prompt_var.grad`: clip per-example prompt
    gradients, sum, add N(0, (sigma c)^2) and divide by the expected batch
    size q*N.  Returns the sampled rows' summed class cross-entropy.  An
    empty sampled batch yields a pure-noise gradient, which is valid under
    Poisson subsampling."""
    shape = prompt_var.data.shape
    acc = np.zeros(shape, dtype=np.float64)
    loss = 0.0
    sampled = np.asarray(sampled_indices, dtype=np.int64)
    for pos in row_chunks([len(dataset.sequences[i]) for i in sampled]):
        rows = sampled[pos]
        copies = Tensor(np.broadcast_to(prompt_var.data, (len(rows),) + shape), requires_grad=True)
        loss += _class_nll_backward(model, copies, dataset, rows, 1.0)
        clipped = clip_gradient(copies.grad.astype(np.float64).reshape(len(rows), -1), dp.clip_norm)
        post_norm = float(np.linalg.norm(clipped, axis=1).max())
        if post_norm > dp.clip_norm * (1.0 + 1e-6):
            raise AssertionError(f"clipped gradient norm {post_norm} exceeds clip bound {dp.clip_norm}")
        acc += clipped.sum(axis=0).reshape(shape)
    noise = rng.normal(0.0, dp.noise_multiplier * dp.clip_norm, size=shape)
    prompt_var.grad = ((acc + noise) / (dp.sample_rate * len(dataset))).astype(prompt_var.data.dtype)
    return loss


def tune_prompt(
    model: TransformerLM,
    prompt: SoftPrompt,
    dataset: LabeledDataset,
    config: TuneConfig,
    seed: int,
) -> tuple[SoftPrompt, list[dict]]:
    """Minimize classification cross-entropy over the prompt matrix only.

    `seed` seeds the run's one RNG: the epoch orders of plain tuning, or the
    Poisson batches and the noise of DP-SGD (`config.dp`)."""
    if prompt.width != model.config.d_model:
        raise ValueError("prompt/model dimension mismatch")
    if len(dataset) == 0:
        raise ValueError("cannot tune on an empty dataset")
    n = len(dataset)
    model.set_trainable(False)
    prompt_var = Tensor(prompt.matrix.copy(), requires_grad=True)
    opt = Optimizer([prompt_var], learning_rate=config.learning_rate)
    rng = np.random.default_rng(seed)
    history: list[dict] = []
    loss_sum, rows_seen = 0.0, 0  # since the previous history row

    def record(step: int) -> None:
        nonlocal loss_sum, rows_seen
        preds = classify_batch(model, dataset.sequences, dataset.verbalizers, prompt=prompt_var.detach())
        loss = loss_sum / rows_seen if rows_seen else math.nan
        history.append({"step": step, "loss": loss, "train_accuracy": float(np.mean(preds == dataset.labels))})
        loss_sum, rows_seen = 0.0, 0

    dp = config.dp
    if dp is not None:
        spent = dp.spent_epsilon()
        if not spent <= dp.epsilon:  # NaN on either side fails
            raise ValueError(
                f"DP budget infeasible: sigma={dp.noise_multiplier} spends epsilon={spent:.4f} "
                f"> {dp.epsilon} at q={dp.sample_rate}, T={dp.steps}; recalibrate sigma"
            )
    per_epoch = math.ceil(n / config.batch_size)
    steps = config.epochs * per_epoch if dp is None else dp.steps
    for step in range(steps):
        if dp is None:
            if step % per_epoch == 0:
                order = rng.permutation(n)
            start = (step % per_epoch) * config.batch_size
            idx = order[start : start + config.batch_size]
            opt.zero_grad()
            scale = 1.0 / len(idx)
            loss = sum(
                _class_nll_backward(model, prompt_var, dataset, idx[pos], scale)
                for pos in row_chunks([len(dataset.sequences[i]) for i in idx])
            )
        else:
            idx = np.flatnonzero(rng.random(n) < dp.sample_rate)
            loss = promptdpsgd_step(model, prompt_var, dataset, idx, dp, rng)
        opt.step()
        loss_sum += loss
        rows_seen += len(idx)
        if config.eval_every and ((step + 1) % (per_epoch * config.eval_every) == 0 or step == steps - 1):
            record(step + 1)

    # A plain tuning pass over private data voids any prior DP claim, so the
    # result carries dp_meta only when this pass itself ran under DP.
    dp_meta = None
    if dp is not None:
        dp_meta = DpMeta(epsilon=dp.epsilon, delta=dp.delta, sigma=dp.noise_multiplier, clip_norm=dp.clip_norm)
    tuned = SoftPrompt(
        matrix=prompt_var.data.astype(np.float32),
        init_seed=prompt.init_seed,
        source_fingerprint=model.fingerprint(),
        dp_meta=dp_meta,
    )
    return tuned, history
