import numpy as np
import pytest

from promptxfer.autograd import Tensor
from promptxfer.optim import EPS, Optimizer


def test_adam_zero_grads_leave_params_unchanged():
    p = Tensor(np.array([1.0, -2.0, 3.0]))
    before = p.data.copy()
    opt = Optimizer([p], learning_rate=0.01)
    for _ in range(5):
        opt.step([np.zeros(3)])
    np.testing.assert_array_equal(p.data, before)
    assert opt.step_count == 5


def test_adam_first_step_magnitude_is_lr():
    lr = 0.001
    p = Tensor(np.zeros(4))
    Optimizer([p], learning_rate=lr).step([np.ones(4)])
    # bias correction makes m_hat/sqrt(v_hat) = 1 exactly on the first step
    expected = -lr / (1.0 + EPS)
    np.testing.assert_allclose(p.data, np.full(4, expected), rtol=1e-7)


def test_adam_second_step_matches_closed_form():
    lr, g1, g2 = 0.1, 2.0, -1.0
    p = Tensor(np.array([0.5]))
    opt = Optimizer([p], learning_rate=lr)
    opt.step([np.array([g1])])
    opt.step([np.array([g2])])
    m = (0.9 * 0.1 * g1 + 0.1 * g2) / (1 - 0.9**2)
    v = (0.999 * 0.001 * g1**2 + 0.001 * g2**2) / (1 - 0.999**2)
    first = lr * g1 / (abs(g1) + EPS)
    np.testing.assert_allclose(p.data, [0.5 - first - lr * m / (np.sqrt(v) + EPS)], rtol=1e-6)


def test_step_count_increments_once_per_update():
    p1, p2 = Tensor(np.zeros(2)), Tensor(np.zeros(3))
    opt = Optimizer([p1, p2], learning_rate=0.1)
    opt.step([np.ones(2), np.ones(3)])
    assert opt.step_count == 1
    assert [m.shape for m in opt.m] == [(2,), (3,)]


def test_shape_mismatch_rejected():
    p = Tensor(np.zeros(2))
    opt = Optimizer([p], learning_rate=0.1)
    with pytest.raises(ValueError):
        opt.step([np.ones(3)])
    with pytest.raises(ValueError):
        opt.step([np.ones(2), np.ones(2)])
    assert opt.step_count == 0


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        Optimizer([], learning_rate=0.0)
    with pytest.raises(ValueError):
        Optimizer([], learning_rate=-1e-3)


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
