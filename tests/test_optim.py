import math

import numpy as np
import pytest

from promptxfer.autograd import Tensor
from promptxfer.optim import EPS, Optimizer


def step(opt: Optimizer, *grads) -> None:
    """One update of `opt` from `grads`, set as its parameters' .grad."""
    for p, g in zip(opt.params, grads, strict=True):
        p.grad = g
    opt.step()


def test_adam_zero_grads_leave_params_unchanged():
    p = Tensor(np.array([1.0, -2.0, 3.0]))
    before = p.data.copy()
    opt = Optimizer([p], learning_rate=0.01)
    for _ in range(5):
        step(opt, np.zeros(3))
    np.testing.assert_array_equal(p.data, before)
    assert opt.step_count == 5


def test_adam_first_step_magnitude_is_lr():
    lr = 0.001
    p = Tensor(np.zeros(4))
    step(Optimizer([p], learning_rate=lr), np.ones(4))
    # bias correction makes m_hat/sqrt(v_hat) = 1 exactly on the first step
    expected = -lr / (1.0 + EPS)
    np.testing.assert_allclose(p.data, np.full(4, expected), rtol=1e-7)


def test_adam_second_step_matches_closed_form():
    lr, g1, g2 = 0.1, 2.0, -1.0
    p = Tensor(np.array([0.5]))
    opt = Optimizer([p], learning_rate=lr)
    step(opt, np.array([g1]))
    step(opt, np.array([g2]))
    m = (0.9 * 0.1 * g1 + 0.1 * g2) / (1 - 0.9**2)
    v = (0.999 * 0.001 * g1**2 + 0.001 * g2**2) / (1 - 0.999**2)
    first = lr * g1 / (abs(g1) + EPS)
    np.testing.assert_allclose(p.data, [0.5 - first - lr * m / (np.sqrt(v) + EPS)], rtol=1e-6)


def test_step_count_increments_once_per_update():
    p1, p2 = Tensor(np.zeros(2)), Tensor(np.zeros((3, 1)))
    opt = Optimizer([p1, p2], learning_rate=0.1)
    step(opt, np.ones(2, dtype=np.float32), -np.ones((3, 1), dtype=np.float32))
    assert opt.step_count == 1
    # every parameter takes its own first step of size lr, in its own shape
    assert p1.data.shape == (2,) and p2.data.shape == (3, 1)
    np.testing.assert_allclose(p1.data, -0.1, rtol=1e-6)
    np.testing.assert_allclose(p2.data, 0.1, rtol=1e-6)
    step(opt, np.ones(2, dtype=np.float32), -np.ones((3, 1), dtype=np.float32))
    assert opt.step_count == 2


def _per_array_adam(params, grad_seq, lr):
    """Adam written out one parameter at a time, the reference for the flat
    buffers: returns each parameter's value after every step."""
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    params = list(params)
    trail = []
    for t, grads in enumerate(grad_seq, start=1):
        bc1, bc2 = 1.0 - 0.9**t, 1.0 - 0.999**t
        for i, g in enumerate(grads):
            m[i] = 0.9 * m[i] + (1.0 - 0.9) * g
            v[i] = 0.999 * v[i] + (1.0 - 0.999) * (g * g)
            m_hat = m[i] / bc1
            v_hat = v[i] / bc2
            params[i] = params[i] - lr * m_hat / (np.sqrt(v_hat) + EPS)
        trail.append([p.copy() for p in params])
    return trail


@pytest.mark.parametrize(
    "shapes,dtype",
    [([(5, 3), (3,), (1,), (2, 4, 2)], np.float32), ([(8, 6)], np.float64)],
    ids=["float32-mixed-shapes", "float64-prompt"],
)
def test_flat_update_is_bit_identical_to_per_array_adam(shapes, dtype):
    rng = np.random.default_rng(11)
    # parameters of the updates' own size, so that a one-ulp difference in an
    # update shows in the parameter
    init = [(rng.normal(size=s) * 1e-3).astype(dtype) for s in shapes]
    # gradients spanning several orders of magnitude, with exact zeros
    grad_seq = [
        [(rng.normal(size=s) * 10.0 ** rng.integers(-6, 3, size=s) * (rng.random(s) > 0.1)).astype(dtype) for s in shapes]
        for _ in range(4)
    ]
    params = [Tensor(a.copy(), dtype=dtype) for a in init]
    opt = Optimizer(params, learning_rate=3e-3)
    for grads, expected in zip(grad_seq, _per_array_adam(init, grad_seq, 3e-3)):
        step(opt, *grads)
        for p, e in zip(params, expected):
            assert p.data.dtype == dtype and p.data.shape == e.shape
            assert np.array_equal(p.data, e)


def test_a_step_updates_each_parameter_array_in_place():
    """Each parameter keeps its array object from step to step, and the
    values are the per-parameter reference's bit for bit."""
    rng = np.random.default_rng(12)
    shapes = [(5, 3), (3,), (2, 4, 2)]
    init = [(rng.normal(size=s) * 1e-3).astype(np.float32) for s in shapes]
    grad_seq = [[rng.normal(size=s).astype(np.float32) for s in shapes] for _ in range(3)]
    params = [Tensor(a.copy()) for a in init]
    arrays = [p.data for p in params]
    opt = Optimizer(params, learning_rate=3e-3)
    for grads, expected in zip(grad_seq, _per_array_adam(init, grad_seq, 3e-3)):
        step(opt, *grads)
        for p, a, e in zip(params, arrays, expected):
            assert p.data is a
            assert np.array_equal(a, e)


def test_a_read_only_parameter_is_rejected_when_the_optimizer_is_built():
    """A step updates arrays in place, so a parameter over a read-only view
    (here numpy's broadcast view, which a tensor keeps as it is) fails
    before any moment moves, not in the middle of a step."""
    p, ro = Tensor(np.zeros(3)), Tensor(np.broadcast_to(np.float32(1.0), (3,)))
    assert not ro.data.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        Optimizer([p, ro], learning_rate=0.1)


def test_mixed_parameter_dtypes_rejected():
    p = Tensor(np.zeros(2), dtype=np.float64)
    with pytest.raises(ValueError):
        Optimizer([Tensor(np.zeros(2)), p], learning_rate=0.1)
    # a gradient is cast to the parameters' dtype
    step(Optimizer([p], learning_rate=0.1), np.ones(2, dtype=np.float32))
    assert p.data.dtype == np.float64


def test_shape_mismatch_rejected():
    """A .grad of another shape than its parameter's is rejected before any
    parameter moves."""
    p, q = Tensor(np.zeros(2)), Tensor(np.zeros(3))
    opt = Optimizer([p, q], learning_rate=0.1)
    with pytest.raises(ValueError):
        step(opt, np.ones(2), np.ones(2))
    assert opt.step_count == 0
    np.testing.assert_array_equal(p.data, 0.0)


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        Optimizer([], learning_rate=0.0)
    with pytest.raises(ValueError):
        Optimizer([], learning_rate=-1e-3)


def test_a_nan_learning_rate_is_rejected():
    with pytest.raises(ValueError, match="learning_rate"):
        Optimizer([Tensor(np.zeros(2))], learning_rate=math.nan)


def test_optimizer_wrapper_uses_tensor_grads():
    p = Tensor(np.array([1.0]), requires_grad=True)
    q = Tensor(np.array([4.0]), requires_grad=True)  # no gradient: a zero step
    (p * p).sum().backward()
    opt = Optimizer([p, q], learning_rate=0.5)
    opt.step()
    np.testing.assert_allclose(p.data, [1.0 - 0.5 * 2.0 / (2.0 + EPS)], rtol=1e-6)
    np.testing.assert_array_equal(q.data, [4.0])
    opt.zero_grad()
    assert p.grad is None
