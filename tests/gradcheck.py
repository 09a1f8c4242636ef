"""Central-difference gradient check for the autograd tests, and the float64
models it wants.

    ok, max_rel_err = finite_diff_check(lambda t: (t * t).sum(), x)
    model64 = float64_model(init_model(config, seed))
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from promptxfer import autograd as ag
from promptxfer.autograd import Tensor
from promptxfer.model import TransformerLM


def finite_diff_check(
    f: Callable[[Tensor], Tensor],
    x,
    tolerance: float = 1e-6,
    step: float = 1e-5,
    max_coords: int | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[bool, float]:
    """Compare the autodiff gradient of f at x against central differences.

    Runs in float64: x and every perturbed point are float64 tensors, and
    the output must be float64 too, so no check quietly runs in float32.
    Tensors and models that `f` captures should be float64 as well
    (`float64_model`).
    Returns (max relative error < tolerance, max relative error).  When
    `max_coords` is set only a random subset of coordinates is probed.
    """
    base = np.array(x.data if isinstance(x, Tensor) else x, dtype=np.float64)
    xt = Tensor(base.copy(), requires_grad=True, dtype=np.float64)
    out = f(xt)
    if out.size != 1:
        raise ValueError("finite_diff_check expects a scalar-valued function")
    if out.data.dtype != np.float64:
        raise ValueError(f"finite_diff_check expects a float64 output, got {out.data.dtype}")
    out.backward()
    g = (xt.grad if xt.grad is not None else np.zeros_like(base)).ravel()

    n = base.size
    if max_coords is None or max_coords >= n:
        coords = np.arange(n)
    else:
        gen = rng if rng is not None else np.random.default_rng(0)
        coords = gen.choice(n, size=max_coords, replace=False)

    max_rel = 0.0
    flat = base.ravel()
    for i in coords:
        orig = flat[i]
        flat[i] = orig + step
        hi = f(Tensor(flat.reshape(base.shape), dtype=np.float64)).item()
        flat[i] = orig - step
        lo = f(Tensor(flat.reshape(base.shape), dtype=np.float64)).item()
        flat[i] = orig
        fd = (hi - lo) / (2.0 * step)
        rel = abs(g[i] - fd) / max(abs(g[i]), abs(fd), 1.0)
        max_rel = max(max_rel, rel)
    return max_rel < tolerance, max_rel


def float64_model(model: TransformerLM) -> TransformerLM:
    """A frozen copy of `model` with every parameter cast to float64.  Tests
    that perturb or differentiate through float64 weights build it, and it
    is the reference for the transfer's float64 model
    (`transfer._with_float64_embeddings`), which casts the embeddings alone."""
    return TransformerLM(model.config, {name: ag._new(p.data.astype(np.float64)) for name, p in model.params.items()})
