"""The benchmark's workloads, as pipeline config dicts.

All three use the default architecture (4-layer d=64 teacher, 2-layer
student) on the default synthetic task; only the workload seed varies.
Pretraining and distillation run a fixed number of steps: the plateau check
interval is longer than the run, so a change to the stopping rule does not
change the amount of work measured.
"""

from __future__ import annotations

from dataclasses import dataclass

PRETRAIN_STEPS = 220
KD_STEPS = 120
TUNE_EPOCHS = 3
TUNE_BATCH = 16
TRANSFER_STEPS = 50
TRANSFER_BATCH = 32
ATTACK_SHADOWS = 6
ATTACK_POOL = 96
ATTACK_EPOCHS = 2
ATTACK_BATCH = 16


@dataclass(frozen=True)
class Workload:
    name: str
    baselines: tuple[str, ...]
    attack: bool = False

    @property
    def transfer_stages(self) -> int:
        return sum(b in ("post", "post_dp") for b in self.baselines)

    @property
    def has_dp(self) -> bool:
        return "post_dp" in self.baselines or self.attack

    def config(self, seed: int, output_dir: str) -> dict:
        return {
            "student_layers": 2,
            "pretrain": {
                "steps": PRETRAIN_STEPS,
                "batch_size": 16,
                "learning_rate": 3e-3,
                "plateau_window": 100,
                "plateau_tolerance": 0.01,
                "check_interval": PRETRAIN_STEPS + 1,
            },
            "kd": {
                "max_steps": KD_STEPS,
                "plateau_window": 40,
                "checkpoint_interval": KD_STEPS + 1,
            },
            "tune": {"epochs": TUNE_EPOCHS, "learning_rate": 1e-2, "batch_size": TUNE_BATCH},
            "transfer_alpha": "heuristic",
            "transfer": {"steps": TRANSFER_STEPS, "learning_rate": 1e-3, "batch_size": TRANSFER_BATCH},
            # one transfer batch is the whole public view
            "public_subset": TRANSFER_BATCH,
            "baselines": list(self.baselines),
            "attack": {
                "enabled": self.attack,
                "n_shadows": ATTACK_SHADOWS,
                "pool_size": ATTACK_POOL,
                "epochs": ATTACK_EPOCHS,
                "batch_size": ATTACK_BATCH,
                "with_dp": True,
            },
            "seeds": [seed],
            "output_dir": output_dir,
            "threads": 1,
        }

    def dp_steps(self, n_private_train: int) -> int:
        """Configured DP-SGD steps T = epochs * ceil(N / batch), summed over
        every DP tuning run of the workload."""
        total = 0
        if "post_dp" in self.baselines:
            total += TUNE_EPOCHS * -(-n_private_train // TUNE_BATCH)
        if self.attack:
            half = ATTACK_POOL // 2
            # the DP target prompt plus one per DP shadow
            total += (1 + ATTACK_SHADOWS) * ATTACK_EPOCHS * -(-half // ATTACK_BATCH)
        return total


WORKLOADS = {
    w.name: w
    for w in (
        Workload("post", ("full_zs", "compressed_pt", "direct_transfer", "post")),
        Workload("post_dp", ("post_dp",)),
        Workload("lira", ("compressed_pt",), attack=True),
    )
}
