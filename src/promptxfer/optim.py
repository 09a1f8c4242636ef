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
    parameter's array in place, so that a step allocates no parameter
    arrays and each keeps its place on the heap.

    The parameters must share one dtype, and their arrays must be
    writeable.  Both moments live in one flat buffer each, in parameter
    order, so a step is about a dozen whole-buffer operations rather than a
    dozen per parameter.  Each elementwise update is the one a per-parameter
    Adam computes, in the same order, so the results are bit-identical to
    it.  Gradients are cast to the parameters' dtype."""

    def __init__(self, params: Sequence[Tensor], learning_rate: float):
        if not learning_rate > 0:  # NaN fails it
            raise ValueError("learning_rate must be positive")
        self.params = list(params)
        for i, p in enumerate(self.params):
            # checked here, as a step that failed on one would already have
            # moved the moments
            if not p.data.flags.writeable:
                raise ValueError(f"parameter {i} has a read-only array, which a step cannot update in place")
        dtypes = {p.data.dtype for p in self.params}
        if len(dtypes) > 1:
            raise ValueError(f"parameters must share one dtype, got {sorted(map(str, dtypes))}")
        dtype = dtypes.pop() if dtypes else np.dtype(np.float32)
        self.learning_rate = learning_rate
        self.step_count = 0
        size = sum(p.data.size for p in self.params)
        self.m = np.zeros(size, dtype=dtype)
        self.v = np.zeros(size, dtype=dtype)

    def step(self) -> None:
        """One update from each parameter's .grad (zero where it has none)."""
        grads = [p.grad if p.grad is not None else np.zeros_like(p.data) for p in self.params]
        for p, g in zip(self.params, grads):
            if np.shape(g) != p.data.shape:
                raise ValueError(f"gradient shape {np.shape(g)} does not match parameter shape {p.data.shape}")
        self.step_count += 1
        if not self.params:
            return
        t = self.step_count
        bc1 = 1.0 - BETA1**t
        bc2 = 1.0 - BETA2**t
        m, v = self.m, self.v
        g = np.concatenate([np.ravel(x) for x in grads], dtype=m.dtype)
        tmp = np.empty_like(g)
        # m = BETA1 * m + (1 - BETA1) * g
        m *= BETA1
        np.multiply(g, 1.0 - BETA1, out=tmp)
        m += tmp
        # v = BETA2 * v + (1 - BETA2) * (g * g); g is scratch from here on
        v *= BETA2
        np.multiply(g, g, out=g)
        g *= 1.0 - BETA2
        v += g
        # update = learning_rate * (m / bc1) / (sqrt(v / bc2) + EPS)
        np.divide(v, bc2, out=g)
        np.sqrt(g, out=g)
        g += EPS
        np.divide(m, bc1, out=tmp)
        tmp *= self.learning_rate
        tmp /= g
        offset = 0
        for p in self.params:
            n = p.data.size
            p.data -= tmp[offset : offset + n].reshape(p.data.shape)
            offset += n

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None
