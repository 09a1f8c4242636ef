import gc
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promptxfer import autograd as ag
from promptxfer.autograd import (
    Tensor,
    causal_attention,
    concat,
    finite_diff_check,
    gelu_mlp,
    kl_divergence,
    layer_norm,
    log_softmax,
    logsumexp,
    matmul,
    narrow,
    precision,
    take,
    take_along_last,
    transpose,
)
from promptxfer.model import ModelConfig, init_model, lm_loss


def rand(rng, *shape):
    return rng.normal(size=shape)


# ---------------------------------------------------------------------------
# finite-difference coverage: every published differentiable op, 20 random
# instances each, 64-bit mode, rel err < 1e-6
# ---------------------------------------------------------------------------

_EYE4, _ZERO4 = np.eye(4), np.zeros(4)
_ZERO1x1, _ONE1x1, _ZERO1, _ONE1 = np.zeros((1, 1)), np.ones((1, 1)), np.zeros(1), np.ones(1)

OP_CASES = {
    "add": lambda x: (x + 1.5 + x * 2.0).sum(),
    "sub": lambda x: (3.0 - x).sum(),
    "mul": lambda x: (x * x).sum(),
    "div": lambda x: (x / 2.5 + 1.0 / (x * x + 1.0)).sum(),
    "power": lambda x: ((x * x + 1.0) ** 1.5).sum(),
    "sum_axis": lambda x: (x.sum(axis=0) ** 2.0).sum(),
    "mean_axis": lambda x: (x.mean(axis=1) ** 2.0).sum(),
    "reshape": lambda x: (x.reshape((x.size,)) ** 2.0).mean(),
    "log_softmax": lambda x: (log_softmax(x, axis=-1) * 0.5).sum(),
    "logsumexp": lambda x: logsumexp(x, axis=-1).sum(),
    # the GELU and the softmax live inside the fused nodes; these reduce the
    # nodes to them: an identity MLP is the elementwise GELU, and 1-wide
    # attention with q = 1 and k = v = x has row t = sum_j softmax(x[:t+1])_j x_j
    "gelu": lambda x: gelu_mlp(x, _EYE4, _ZERO4, _EYE4, _ZERO4).sum(),
    "softmax": lambda x: (
        causal_attention(x.reshape((12, 1)), _ZERO1x1, _ONE1x1, _ONE1x1, _ONE1, _ZERO1, _ZERO1, 1, 3) ** 2.0
    ).sum(),
}


@pytest.mark.parametrize("name", sorted(OP_CASES))
def test_gradcheck_elementwise_ops(name):
    f = OP_CASES[name]
    rng = np.random.default_rng(hash(name) % 2**32)
    for _ in range(20):
        x = rand(rng, 3, 4)
        ok, err = finite_diff_check(f, x, tolerance=1e-6)
        assert ok, f"{name}: max rel err {err:.3e}"


# ---------------------------------------------------------------------------
# fused transformer-layer nodes: float64 finite differences with respect to
# the input and to every weight and bias, through a random linear read-out
# (a plain sum would hide, for example, the layer-norm input gradient).
# Attention runs on the flat layout: ROWS rows of T tokens, and with a
# prefix, PREFIX_LEN prefix rows shared by every row (m = 1) or one copy per
# row (m = ROWS) in front of them.
# ---------------------------------------------------------------------------

D, HEADS, ROWS, T, PREFIX_LEN = 8, 2, 3, 4, 2
PREFIX_COPIES = {"causal_attention": 0, "causal_attention_shared": 1, "causal_attention_per_row": ROWS}


def _fused_args(node, rng):
    d = D
    if node == "layer_norm":
        return {"x": rng.normal(size=(2, 3, d)), "gain": 1.0 + rng.normal(size=d), "bias": rng.normal(size=d)}
    if node in PREFIX_COPIES:
        m = PREFIX_COPIES[node]
        args = {"x": rng.normal(size=(ROWS * T, d))}
        if m:
            args = {"prefix": rng.normal(size=(m * PREFIX_LEN, d)), "tokens": args["x"]}
        args.update({w: rng.normal(size=(d, d)) * 0.5 for w in ("wq", "wk", "wv")})
        args.update({b: rng.normal(size=d) * 0.5 for b in ("bq", "bk", "bv")})
        return args
    return {
        "x": rng.normal(size=(2, 3, d)),
        "w1": rng.normal(size=(d, 4 * d)) * 0.5,
        "b1": rng.normal(size=4 * d),
        "w2": rng.normal(size=(4 * d, d)) * 0.5,
        "b2": rng.normal(size=d),
    }


def _call_fused(node, args):
    if node == "layer_norm":
        return layer_norm(args["x"], args["gain"], args["bias"], 1e-5)
    if node in PREFIX_COPIES:
        m = PREFIX_COPIES[node]
        x = concat([args["prefix"], args["tokens"]], axis=0) if m else args["x"]
        weights = (args[k] for k in ("wq", "wk", "wv", "bq", "bk", "bv"))
        return causal_attention(x, *weights, HEADS, ROWS, (m, PREFIX_LEN if m else 0))
    return gelu_mlp(*(args[k] for k in ("x", "w1", "b1", "w2", "b2")))


FUSED_CASES = [
    ("layer_norm", arg) for arg in ("x", "gain", "bias")
] + [
    ("causal_attention", arg) for arg in ("x", "wq", "wk", "wv", "bq", "bk", "bv")
] + [
    (node, arg)
    for node in ("causal_attention_shared", "causal_attention_per_row")
    for arg in ("prefix", "tokens", "wq", "wk", "wv", "bq", "bk", "bv")
] + [
    ("gelu_mlp", arg) for arg in ("x", "w1", "b1", "w2", "b2")
]


@pytest.mark.parametrize("node,arg", FUSED_CASES, ids=[f"{n}-{a}" for n, a in FUSED_CASES])
def test_gradcheck_fused_nodes(node, arg):
    rng = np.random.default_rng(sum(map(ord, node + arg)))
    with precision(np.float64):
        for _ in range(3):
            args = {k: Tensor(v) for k, v in _fused_args(node, rng).items()}
            readout = rng.normal(size=_call_fused(node, args).shape)

            def f(t):
                return (_call_fused(node, {**args, arg: t}) * readout).sum()

            ok, err = finite_diff_check(f, args[arg].data, tolerance=1e-6)
            assert ok, f"{node} d/d{arg}: max rel err {err:.3e}"


def test_fused_nodes_skip_frozen_and_keep_inputs_only():
    """Only what requires a gradient gets one, and no backward captures its
    own output (the graph stays acyclic)."""
    rng = np.random.default_rng(1)
    for node in ("layer_norm", "causal_attention", "gelu_mlp"):
        args = {k: Tensor(v) for k, v in _fused_args(node, rng).items()}
        args["x"].requires_grad = True
        out = _call_fused(node, args)
        assert out._parents == (args["x"],)
        cells = [c.cell_contents for c in out._backward.__closure__ or ()]
        assert not any(c is out for c in cells)
        out.sum().backward()
        assert args["x"].grad is not None and args["x"].grad.shape == args["x"].shape
        assert all(t.grad is None for k, t in args.items() if k != "x")


def test_gradcheck_matmul_and_structure_ops():
    rng = np.random.default_rng(7)
    w = rng.normal(size=(4, 3))
    rows = rng.normal(size=(3, 5, 2))

    cases = [
        lambda x: (matmul(x, Tensor(w)) ** 2.0).sum(),
        # a 2-D right operand after a 3-D left one: both gradients
        lambda x: (matmul(x.reshape((2, 2, 2)), Tensor(w[:2])) ** 2.0).sum(),
        lambda x: (matmul(Tensor(rows), x) ** 2.0).sum(),
        lambda x: (transpose(x, (1, 0)) ** 2.0).mean(),
        lambda x: (take(x, [1, 1, 0], axis=0) ** 2.0).sum(),
        # strictly increasing indices scatter by assignment, the others by a
        # grouped sum; a negative index is the same row as its positive twin
        lambda x: (take(x, [0, 2, 3], axis=1) ** 2.0).sum(),
        lambda x: (take(x, [3, 0, 3, 1, 0], axis=1) ** 2.0).sum(),
        lambda x: (take(x, [1, -1], axis=0) ** 2.0).sum(),
        lambda x: (narrow(x, 1, 1, 2) ** 2.0).sum(),
        lambda x: (concat([x, x * 2.0], axis=0) ** 2.0).sum(),
        lambda x: (take_along_last(x, np.array([2, 0])) ** 2.0).sum(),
    ]
    for f in cases:
        for _ in range(20):
            x = rand(rng, 2, 4)
            ok, err = finite_diff_check(f, x, tolerance=1e-6)
            assert ok, f"max rel err {err:.3e}"
    # the right operand is always a 2-D weight
    with pytest.raises(ValueError):
        matmul(Tensor(rows), Tensor(rows))


def test_finite_diff_check_examples():
    rng = np.random.default_rng(0)
    x = rng.normal(size=6)
    ok, _ = finite_diff_check(lambda t: (t * t).sum(), x, tolerance=1e-6)
    assert ok

    ok, err = finite_diff_check(lambda t: (t * 0.0).sum() + 3.0, x, tolerance=1e-6)
    assert ok and err == 0.0


def test_finite_diff_check_negative_control():
    # an op whose backward is deliberately corrupted (gradient scaled x2)
    def bad_square(t):
        out = ag._new(t.data * t.data)

        def bw(g):
            t._acc(g * 4.0 * t.data)

        ag._graph(out, (t,), bw)
        return out.sum()

    x = np.random.default_rng(0).normal(size=6) + 2.0
    ok, err = finite_diff_check(bad_square, x, tolerance=1e-6)
    assert not ok and err > 1e-3


def test_finite_diff_check_coordinate_sampling():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(6, 6))
    ok, _ = finite_diff_check(
        lambda t: logsumexp(t * 0.1, axis=-1).sum(), x, tolerance=1e-6, max_coords=10, rng=rng
    )
    assert ok


# ---------------------------------------------------------------------------
# kl_divergence
# ---------------------------------------------------------------------------


def test_kl_identical_is_zero():
    v = [1.3, -0.2, 4.0]
    out = kl_divergence(Tensor(v), Tensor(v))
    assert out.item() == 0.0


def test_kl_derived_value():
    # softmax(ref) = [1/2, 1/2]; softmax(adj) = [1/4, 3/4]
    ref = Tensor([0.0, 0.0])
    adj = Tensor([0.0, math.log(3.0)])
    expected = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
    assert math.isclose(kl_divergence(ref, adj).item(), expected, rel_tol=1e-6)


def test_kl_nonnegative_random():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = rng.integers(2, 12)
        a, b = rng.normal(size=n) * 3, rng.normal(size=n) * 3
        assert kl_divergence(Tensor(a), Tensor(b)).item() >= 0.0


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-20, 20), min_size=2, max_size=8), st.data())
def test_kl_nonnegative_property(ref, data):
    adj = data.draw(st.lists(st.floats(-20, 20), min_size=len(ref), max_size=len(ref)))
    assert kl_divergence(Tensor(ref), Tensor(adj)).item() >= 0.0


def test_kl_gradient_flows_to_adjustable_only():
    with precision(np.float64):
        ref = Tensor([0.5, -1.0, 2.0], requires_grad=True)
        adj = Tensor([0.1, 0.2, 0.3], requires_grad=True)
        kl_divergence(ref, adj).backward()
        assert ref.grad is None
        assert adj.grad is not None and np.any(adj.grad != 0)

    def f(x):
        return kl_divergence(Tensor([0.5, -1.0, 2.0]), x)

    rng = np.random.default_rng(5)
    for _ in range(20):
        ok, err = finite_diff_check(f, rng.normal(size=3), tolerance=1e-6)
        assert ok, err


def test_kl_rows_sum_over_rows():
    rng = np.random.default_rng(6)
    with precision(np.float64):
        ref, adj = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        rows = kl_divergence(ref, Tensor(adj))
        singles = [kl_divergence(r, Tensor(a)).item() for r, a in zip(ref, adj)]
    assert rows.item() == pytest.approx(sum(singles), rel=1e-12)

    x = Tensor(adj, requires_grad=True)
    kl_divergence(ref, x).backward()
    expected = np.exp(adj) / np.exp(adj).sum(axis=1, keepdims=True) - np.exp(ref) / np.exp(ref).sum(
        axis=1, keepdims=True
    )
    np.testing.assert_allclose(x.grad, expected, rtol=1e-5, atol=1e-7)


def test_kl_rejects_bad_input():
    with pytest.raises(ValueError):
        kl_divergence(Tensor([1.0, np.inf]), Tensor([0.0, 0.0]))
    with pytest.raises(ValueError):
        kl_divergence(Tensor([1.0, 2.0, 3.0]), Tensor([0.0, 0.0]))
    with pytest.raises(ValueError):
        kl_divergence(Tensor([1.0]), Tensor([1.0]))
    with pytest.raises(ValueError):
        kl_divergence(np.zeros((2, 3)), Tensor(np.zeros((3, 2))))
    with pytest.raises(ValueError):
        kl_divergence(np.zeros((2, 2, 2)), Tensor(np.zeros((2, 2, 2))))


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------


def test_determinism_bitwise():
    def run():
        rng = np.random.default_rng(123)
        x = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        y = (log_softmax(matmul(x, x)) ** 2.0).sum()
        y.backward()
        return y.item(), x.grad.copy()

    v1, g1 = run()
    v2, g2 = run()
    assert v1 == v2
    assert np.array_equal(g1, g2)


def test_precision_context():
    assert Tensor([1.0]).data.dtype == np.float32
    with precision(np.float64):
        assert Tensor([1.0]).data.dtype == np.float64
    assert Tensor([1.0]).data.dtype == np.float32
    with pytest.raises(ValueError):
        ag.set_default_dtype(np.int32)


def test_backward_requires_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        (x * 2.0).backward()


# ---------------------------------------------------------------------------
# graph lifetime
# ---------------------------------------------------------------------------


def _tiny_lm():
    cfg = ModelConfig(vocab_size=20, d_model=8, n_heads=2, n_layers=2, max_seq_len=12)
    model = init_model(cfg, 0)
    model.set_trainable(True)
    return model, np.array([[1, 2, 3, 4, 5], [6, 7, 8, 9, 10]])


def _live_tensors() -> int:
    return sum(isinstance(o, Tensor) for o in gc.get_objects())


def test_graph_freed_by_reference_count():
    model, ids = _tiny_lm()
    lm_loss(model, ids).backward()  # warm the model's mask cache
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        before = _live_tensors()
        loss = lm_loss(model, ids)
        loss.backward()
        assert _live_tensors() > before
        del loss
        assert _live_tensors() == before
    finally:
        if was_enabled:
            gc.enable()


def test_backward_keeps_leaf_grads_only():
    model, ids = _tiny_lm()
    loss = lm_loss(model, ids)
    nodes, stack = {}, [loss]
    while stack:
        node = stack.pop()
        if id(node) not in nodes:
            nodes[id(node)] = node
            stack.extend(node._parents)
    loss.backward()
    leaves = [n for n in nodes.values() if not n._parents]
    interior = [n for n in nodes.values() if n._parents]
    assert leaves and interior
    assert all(n.requires_grad and n.grad is not None for n in leaves)
    assert all(n.grad is None for n in interior)
    assert all(p.grad is not None for p in model.parameters())


def test_repeated_steps_reuse_freed_heap():
    # Each step frees its whole graph at once; the next step must reuse that
    # memory rather than fault it in again from the kernel.
    if not ag._keep_freed_heap():
        pytest.skip("no glibc mallopt")
    import resource

    x = Tensor(np.ones((64, 1024), dtype=np.float32), requires_grad=True)  # 256 KiB

    def step():
        y = x
        for _ in range(8):
            y = log_softmax(y * 1.01)
        ag.tsum(y).backward()
        x.zero_grad()  # as an optimizer loop does; nothing of the step survives it

    for _ in range(3):
        step()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(20):
        step()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 64  # one step touches well over 1000 pages of arrays
