"""Leakage measurement: likelihood-ratio membership inference against soft
prompts.

The membership attack trains shadow prompts on independent random halves of
a candidate pool, models each candidate's logit-scaled true-class confidence
with per-example IN/OUT Gaussian means and a globally pooled variance, and
scores the target prompt by the log-likelihood ratio.
"""

from __future__ import annotations

import csv
import json
import logging
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .corpus import LabeledDataset
from .model import SoftPrompt, TransformerLM, class_log_probs_batch

log = logging.getLogger(__name__)

_CLAMP = 1e-6
_VAR_FLOOR = 1e-12


@dataclass
class AttackResult:
    per_example: list[tuple[int, float, bool]]  # (example id, score, true member flag)
    auc: float
    tpr_at_1pct_fpr: float
    n_shadows: int


def logit_scale(p: float) -> float:
    """ln(p / (1-p)) after clamping p to [1e-6, 1 - 1e-6]."""
    p = min(max(float(p), _CLAMP), 1.0 - _CLAMP)
    return math.log(p / (1.0 - p))


def auc(scores: Sequence[float], labels: Sequence[bool]) -> float:
    """P(random positive outranks random negative); ties count one half."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("both classes must be present")
    # 1-based ranks, each tie group at its average: the group ending at rank
    # c with k members holds ranks c - k + 1 .. c
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - 0.5 * (counts - 1))[group]
    pos_rank_sum = ranks[labels].sum()
    return float((pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def tpr_at_fpr(scores: Sequence[float], labels: Sequence[bool], fpr_target: float) -> float:
    """Maximal TPR over thresholds whose empirical FPR stays <= fpr_target."""
    if not 0 < fpr_target < 1:
        raise ValueError("fpr_target must lie in (0, 1)")
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("both classes must be present")
    best = 0.0
    for thr in np.unique(scores):
        pred = scores >= thr
        fpr = float((pred & ~labels).sum()) / n_neg
        if fpr <= fpr_target:
            best = max(best, float((pred & labels).sum()) / n_pos)
    return best


def true_class_confidences(
    model: TransformerLM, pool: LabeledDataset, prompt: SoftPrompt | None
) -> np.ndarray:
    """Logit-scaled probability of the true class for every pool example."""
    lp = class_log_probs_batch(model, pool.sequences, pool.verbalizers, prompt=prompt)
    probs = np.exp(lp[np.arange(len(pool)), pool.labels])
    return np.array([logit_scale(p) for p in probs])


def shadow_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _gaussian_fit(conf: np.ndarray, in_mask: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Per-candidate IN and OUT means of the [shadows x candidates] `conf`
    (NaN where a side is empty) and the variance of every confidence about
    its side's mean, pooled over all candidates and floored at _VAR_FLOOR."""
    n = conf.shape[1]
    mu_in, mu_out = (
        np.divide(np.where(m, conf, 0.0).sum(axis=0), m.sum(axis=0), out=np.full(n, np.nan), where=m.any(axis=0))
        for m in (in_mask, ~in_mask)
    )
    residuals = conf - np.where(in_mask, mu_in, mu_out)
    return mu_in, mu_out, max(float(np.mean(np.square(residuals))), _VAR_FLOOR)


def lira_attack(
    model: TransformerLM,
    candidate_pool: LabeledDataset,
    train_fn: Callable[[LabeledDataset, int], SoftPrompt],
    target_prompt: SoftPrompt,
    target_members: Sequence[int],
    n_shadows: int = 8,
    seed: int = 0,
) -> AttackResult:
    """Membership inference on the prompt-tuning set via shadow prompts.

    Each shadow prompt is trained (by `train_fn`, deterministic per its seed
    argument) on an independent random half of the pool.  Candidates missing
    an IN or OUT side fall back to the corresponding global Gaussian.
    """
    if n_shadows < 2:
        raise ValueError("need at least 2 shadow prompts")
    n = len(candidate_pool)
    member_mask = np.zeros(n, dtype=bool)
    member_mask[np.asarray(list(target_members), dtype=np.int64)] = True

    in_mask = np.zeros((n_shadows, n), dtype=bool)
    shadow_conf = []
    for i in range(n_shadows):
        rows = np.sort(np.random.default_rng(shadow_seed(seed, i)).choice(n, size=n // 2, replace=False))
        in_mask[i, rows] = True
        prompt = train_fn(candidate_pool.subset(rows), shadow_seed(seed, i))
        shadow_conf.append(true_class_confidences(model, candidate_pool, prompt))
    conf = np.stack(shadow_conf)
    mu_in, mu_out, var = _gaussian_fit(conf, in_mask)
    global_in = float(conf[in_mask].mean())
    global_out = float(conf[~in_mask].mean())
    n_fallback = int(np.isnan(mu_in).sum() + np.isnan(mu_out).sum())
    if n_fallback:
        log.info("lira: %d candidate sides fell back to the global Gaussian", n_fallback)
    mu_in = np.where(np.isnan(mu_in), global_in, mu_in)
    mu_out = np.where(np.isnan(mu_out), global_out, mu_out)

    target_conf = true_class_confidences(model, candidate_pool, target_prompt)
    # equal-variance Gaussian log-likelihood ratio
    scores = ((mu_in - mu_out) * (target_conf - 0.5 * (mu_in + mu_out))) / var

    labels = member_mask.tolist()
    result = AttackResult(
        per_example=[(i, float(scores[i]), bool(labels[i])) for i in range(n)],
        auc=auc(scores, member_mask),
        tpr_at_1pct_fpr=tpr_at_fpr(scores, member_mask, 0.01),
        n_shadows=n_shadows,
    )
    return result


def write_attack_csv(result: AttackResult, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["example_id", "score", "member_flag"])
        for ex_id, score, member in result.per_example:
            writer.writerow([ex_id, f"{score:.10g}", int(member)])


def write_attack_summary(result: AttackResult, path, seeds: Sequence[int] = ()) -> None:
    summary = {
        "auc": result.auc,
        "tpr_at_1pct_fpr": result.tpr_at_1pct_fpr,
        "n_shadows": result.n_shadows,
        "seeds": list(seeds),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
