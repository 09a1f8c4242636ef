"""Output checks: each returns a list of failure messages, empty when the
check holds.  They compare what the pipeline reported or wrote with the
independent computations in `reference`, or with properties the method
must have.
"""

from __future__ import annotations

import numpy as np

import reference

# Examples whose reference class margin (log-prob gap between the top two
# classes) is below this may be classified differently by the program, whose
# forward mixes float32 and float64 arithmetic.
MARGIN_TOLERANCE = 1e-4
# Relative tolerance between the logged first transfer loss and the float64
# reference objective at the same prompt (observed: about 2e-7).
OBJECTIVE_RTOL = 1e-5
# Slack between the independent RDP computation and the target epsilon.
EPSILON_SLACK = 0.01

TEACHER_SIDE_STAGES = ("pretrain", "kd", "transfer", "transfer_dp")


def check_accuracy(name: str, reported: float, ref_log_probs: np.ndarray, labels: np.ndarray) -> list[str]:
    """The reported accuracy must equal the reference accuracy, except on
    examples whose reference margin is below MARGIN_TOLERANCE."""
    n = len(labels)
    count = reported * n
    if abs(count - round(count)) > 1e-6:
        return [f"{name}: accuracy {reported} is not a whole count of {n} examples"]
    ordered = np.sort(ref_log_probs, axis=1)
    low = (ordered[:, -1] - ordered[:, -2]) < MARGIN_TOLERANCE
    right = np.argmax(ref_log_probs, axis=1) == labels
    lo = int(np.sum(right & ~low))
    hi = int(np.sum(right | low))
    if not lo <= round(count) <= hi:
        return [
            f"{name}: reported {int(round(count))}/{n} correct, reference gives {int(right.sum())}/{n} "
            f"({int(low.sum())} examples within the margin tolerance)"
        ]
    return []


def check_transfer_objective(
    name: str, logged_first_total: float, start_objective: float, final_objective: float
) -> list[str]:
    """The first logged loss is the objective at the start prompt, and the
    transferred prompt lowers the objective."""
    out = []
    if abs(logged_first_total - start_objective) > OBJECTIVE_RTOL * abs(start_objective) + 1e-12:
        out.append(f"{name}: first logged total {logged_first_total} != reference objective {start_objective}")
    if not final_objective < start_objective:
        out.append(f"{name}: objective at the transferred prompt {final_objective} >= start {start_objective}")
    return out


def check_dp(name: str, dp_meta: dict | None, sample_rate: float, steps: int) -> list[str]:
    """The prompt carries dp_meta whose sigma keeps the independently
    computed spent epsilon within its target."""
    if not dp_meta:
        return [f"{name}: DP prompt carries no dp_meta"]
    spent = reference.rdp_spent_epsilon(dp_meta["sigma"], sample_rate, steps, dp_meta["delta"])
    if spent > dp_meta["epsilon"] * (1.0 + EPSILON_SLACK):
        return [
            f"{name}: sigma={dp_meta['sigma']} at q={sample_rate}, T={steps}, delta={dp_meta['delta']} "
            f"spends epsilon={spent:.4f} > target {dp_meta['epsilon']}"
        ]
    return []


def check_data_roles(ledger: list[dict]) -> list[str]:
    """No teacher-side stage reads the private train split."""
    return [
        f"ledger: stage {row['stage']} read private_train ({row['dataset']})"
        for row in ledger
        if row["stage"] in TEACHER_SIDE_STAGES and row["role"] == "private_train"
    ]


def check_attack_auc(name: str, reported_auc: float, scores, members) -> list[str]:
    expected = reference.pairwise_auc(scores, members)
    if abs(expected - reported_auc) > 1e-9:
        return [f"{name}: reported AUC {reported_auc} != pairwise AUC {expected}"]
    return []
