"""Soft prompt tuning on a frozen model, plain or with per-example DP-SGD.

The DP path follows the clip-sum-noise recipe: per-example gradients over
the prompt matrix are clipped to norm c, summed, perturbed with Gaussian
noise of std sigma*c per coordinate, and normalized by the expected batch
size q*N under Poisson subsampling.

Per-example gradients come from one backward: each row of a chunk reads its
own copy of the prompt (a [k x l x d] leaf, whose k*l prompt positions the
forward runs once each), so the gradient of the summed loss with respect to
copy r is exactly row r's gradient.  Plain tuning passes the shared [l x d]
prompt, whose l positions the forward runs once per chunk.

Every step runs the length-sorted `model.row_chunks` of its batch, at most
`model.ROWS_PER_FORWARD` rows each, each forward and backward inside its
own function call, so a chunk's graph is freed before the next chunk's
forward; leaf gradients accumulate across chunks.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
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
    class_log_probs_batch,
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
        if self.clip_norm <= 0 or self.noise_multiplier <= 0:
            raise ValueError("clip_norm and noise_multiplier must be positive")
        if not 0 < self.sample_rate <= 1:
            raise ValueError("sample_rate must lie in (0, 1]")
        if self.steps < 0:
            raise ValueError("steps must be nonnegative")
        if self.epsilon <= 0 or not 0 < self.delta < 1:
            raise ValueError("epsilon must be positive and delta in (0, 1)")

    def spent_epsilon(self) -> float:
        return rdp_epsilon(self.noise_multiplier, self.sample_rate, self.steps, self.delta)

    def to_dict(self) -> dict:
        return {
            "clip_norm": self.clip_norm,
            "noise_multiplier": self.noise_multiplier,
            "sample_rate": self.sample_rate,
            "steps": self.steps,
            "epsilon": self.epsilon,
            "delta": self.delta,
        }


@dataclass
class TuneConfig:
    epochs: int = 20
    learning_rate: float = 0.001
    batch_size: int = 32
    dp: DpParams | None = None
    seed: int = 0
    eval_every: int = 1  # epochs (or epoch-equivalents under DP) between history rows

    def __post_init__(self):
        if self.epochs < 0 or self.batch_size <= 0 or self.learning_rate <= 0:
            raise ValueError("epochs must be >= 0; batch_size and learning_rate positive")

    def digest(self) -> str:
        blob = {
            "epochs": self.epochs,
            "learning_rate": self.learning_rate,
            "batch_size": self.batch_size,
            "dp": self.dp.to_dict() if self.dp else None,
            "seed": self.seed,
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
    if c <= 0:
        raise ValueError("clip norm must be positive")
    norms = np.linalg.norm(g, axis=-1, keepdims=True)
    return g * (c / np.maximum(norms, c))


def _class_nll_backward(model: TransformerLM, prompt: Tensor, dataset: LabeledDataset, rows, scale: float) -> float:
    """Back-propagate scale * (summed class cross-entropy over `rows`) into the
    prompt leaf; returns the loss.  The graph is freed on return."""
    lp = answer_log_probs(model, [dataset.templated(i) for i in rows], dataset.verbalizers, prompt)
    loss = -ag.take_along_last(lp, dataset.labels[rows]).sum() * scale
    loss.backward()
    return loss.item()


def promptdpsgd_step(
    model: TransformerLM,
    prompt_var: Tensor,
    dataset: LabeledDataset,
    sampled_indices: Sequence[int],
    dp: DpParams,
    dataset_size: int,
    rng: np.random.Generator,
    optimizer: Optimizer,
) -> np.ndarray:
    """One DP step: clip per-example prompt gradients, sum, add N(0, (sigma c)^2),
    divide by the expected batch size q*N, then apply the optimizer.

    Returns the noisy gradient estimate (the optimizer input).  An empty
    sampled batch yields a pure-noise update, which is valid under Poisson
    subsampling.
    """
    shape = prompt_var.data.shape
    acc = np.zeros(shape, dtype=np.float64)
    sampled = np.asarray(sampled_indices, dtype=np.int64)
    for pos in row_chunks([len(dataset.templated(i)) for i in sampled]):
        rows = sampled[pos]
        copies = Tensor(np.broadcast_to(prompt_var.data, (len(rows),) + shape), requires_grad=True)
        _class_nll_backward(model, copies, dataset, rows, 1.0)
        clipped = clip_gradient(copies.grad.astype(np.float64).reshape(len(rows), -1), dp.clip_norm)
        post_norm = float(np.linalg.norm(clipped, axis=1).max())
        if post_norm > dp.clip_norm * (1.0 + 1e-6):
            raise AssertionError(f"clipped gradient norm {post_norm} exceeds clip bound {dp.clip_norm}")
        acc += clipped.sum(axis=0).reshape(shape)
    noise = rng.normal(0.0, dp.noise_multiplier * dp.clip_norm, size=shape)
    grad_estimate = (acc + noise) / (dp.sample_rate * dataset_size)
    grad_estimate = grad_estimate.astype(prompt_var.data.dtype)
    optimizer.step([grad_estimate])
    return grad_estimate


def tune_prompt(
    model: TransformerLM,
    prompt: SoftPrompt,
    dataset: LabeledDataset,
    config: TuneConfig,
) -> tuple[SoftPrompt, list[dict]]:
    """Minimize classification cross-entropy over the prompt matrix only."""
    if prompt.width != model.config.d_model:
        raise ValueError("prompt/model dimension mismatch")
    if len(dataset) == 0:
        raise ValueError("cannot tune on an empty dataset")
    n = len(dataset)
    model.set_trainable(False)
    prompt_var = Tensor(prompt.matrix.copy(), requires_grad=True)
    opt = Optimizer([prompt_var], learning_rate=config.learning_rate)
    rng = np.random.default_rng(config.seed)
    history: list[dict] = []

    def record(step: int, loss: float, preds: np.ndarray) -> None:
        history.append({"step": step, "loss": loss, "train_accuracy": float(np.mean(preds == dataset.labels))})

    if config.dp is None:
        steps_done = 0
        for epoch in range(config.epochs):
            order = rng.permutation(n)
            losses = []
            for start in range(0, n, config.batch_size):
                idx = order[start : start + config.batch_size]
                opt.zero_grad()
                scale = 1.0 / len(idx)
                losses.append(
                    sum(
                        _class_nll_backward(model, prompt_var, dataset, idx[pos], scale)
                        for pos in row_chunks([len(dataset.templated(i)) for i in idx])
                    )
                )
                opt.step()
                steps_done += 1
            if (epoch + 1) % config.eval_every == 0 or epoch == config.epochs - 1:
                preds = classify_batch(model, dataset.sequences, dataset.verbalizers, prompt=prompt_var.detach())
                record(steps_done, float(np.mean(losses)), preds)
        dp_meta = None
    else:
        dp = config.dp
        spent = dp.spent_epsilon()
        if spent > dp.epsilon:
            raise ValueError(
                f"DP budget infeasible: sigma={dp.noise_multiplier} spends epsilon={spent:.4f} "
                f"> {dp.epsilon} at q={dp.sample_rate}, T={dp.steps}; recalibrate sigma"
            )
        steps_per_epoch = max(1, round(1.0 / dp.sample_rate))
        for step in range(dp.steps):
            mask = rng.random(n) < dp.sample_rate
            idx = np.flatnonzero(mask)
            promptdpsgd_step(model, prompt_var, dataset, idx, dp, n, rng, opt)
            if (step + 1) % (steps_per_epoch * config.eval_every) == 0 or step == dp.steps - 1:
                # one scoring pass gives both the history loss and the accuracy
                lp = class_log_probs_batch(model, dataset.sequences, dataset.verbalizers, prompt_var.detach())
                record(step + 1, -float(np.mean(lp[np.arange(n), dataset.labels])), np.argmax(lp, axis=1))
        dp_meta = DpMeta(
            epsilon=dp.epsilon, delta=dp.delta, sigma=dp.noise_multiplier, clip_norm=dp.clip_norm
        )

    # A plain tuning pass over private data voids any prior DP claim, so the
    # result carries dp_meta only when this pass itself ran under DP.
    tuned = SoftPrompt(
        matrix=prompt_var.data.astype(np.float32),
        init_seed=prompt.init_seed,
        source_fingerprint=model.fingerprint(),
        dp_meta=dp_meta,
    )
    return tuned, history
