"""Adam over a fixed list of parameter tensors."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .autograd import Tensor

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Optimizer:
    """Adam (Kingma & Ba 2015) with bias-corrected moments, updating each
    parameter's data in place of the old array."""

    def __init__(self, params: Sequence[Tensor], learning_rate: float):
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        self.params = list(params)
        self.learning_rate = learning_rate
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self, grads: Sequence[np.ndarray] | None = None) -> None:
        """One update from `grads`, or from each parameter's .grad (zero where
        it has none)."""
        if grads is None:
            grads = [p.grad if p.grad is not None else np.zeros_like(p.data) for p in self.params]
        if len(grads) != len(self.params):
            raise ValueError("params and grads must have the same length")
        for p, g in zip(self.params, grads):
            if np.shape(g) != p.data.shape:
                raise ValueError(f"gradient shape {np.shape(g)} does not match parameter shape {p.data.shape}")
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - BETA1**t
        bc2 = 1.0 - BETA2**t
        for i, (p, g) in enumerate(zip(self.params, grads)):
            self.m[i] = BETA1 * self.m[i] + (1.0 - BETA1) * g
            self.v[i] = BETA2 * self.v[i] + (1.0 - BETA2) * (g * g)
            m_hat = self.m[i] / bc1
            v_hat = self.v[i] / bc2
            p.data = p.data - self.learning_rate * m_hat / (np.sqrt(v_hat) + EPS)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None
