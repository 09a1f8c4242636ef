import gc
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from gradcheck import finite_diff_check, float64_model
from promptxfer import autograd as ag
from promptxfer.autograd import (
    Tensor,
    causal_attention,
    concat,
    gelu_mlp,
    kl_divergence,
    layer_norm,
    log_softmax,
    logsumexp,
    matmul,
    narrow,
    take,
    take_along_last,
)
from promptxfer.model import ModelConfig, answer_log_probs, init_model, init_prompt, lm_loss
from promptxfer.optim import Optimizer
from promptxfer.transfer import _with_float64_embeddings


def rand(rng, *shape):
    return rng.normal(size=shape)


# ---------------------------------------------------------------------------
# finite-difference coverage: every published differentiable op, 20 random
# instances each, 64-bit mode, rel err < 1e-6
# ---------------------------------------------------------------------------

_ONE4, _ZERO4, _E0, _E00 = np.ones(4), np.zeros(4), np.eye(4)[0], np.diag(np.eye(4)[0])
_ROW12, _ONE12, _ZERO12 = np.arange(12.0).reshape(1, 12), np.ones(12), np.zeros(12)
_ONE12x12, _ZERO12x12 = np.ones((12, 12)), np.zeros((12, 12))


def _unit_rows(x):
    """The rows (x_i, -x_i, 1, -1) of the 12 values of x, which a layer norm
    maps to (z_i, -z_i, c_i, -c_i), z = x / sqrt((x^2 + 1) / 2 + eps)."""
    x = x.reshape((12, 1))
    return concat([x, x * -1.0, np.ones((12, 1)), -np.ones((12, 1))], axis=1)


OP_CASES = {
    "add": lambda x: (x + 1.5 + x * 2.0).sum(),
    "sub": lambda x: (3.0 - x).sum(),
    "mul": lambda x: (x * x).sum(),
    "div": lambda x: (ag.div(x, 2.5) + ag.div(1.0, x * x + 1.0)).sum(),
    "power": lambda x: ((x * x + 1.0) ** 1.5).sum(),
    "sum_axis": lambda x: (x.sum(axis=0) ** 2.0).sum(),
    "reshape": lambda x: (x.reshape((x.size,)) ** 2.0).mean(),
    "log_softmax": lambda x: (log_softmax(x) * 0.5).sum(),
    "logsumexp": lambda x: logsumexp(x).sum(),
    # the GELU and the softmax live inside the fused nodes, behind their
    # layer norm; these reduce the nodes to them.  A zero w1 makes the MLP's
    # pre-activation its bias b1, so w2 of ones sums GELU(b1) into every
    # output.  Over the rows of `_unit_rows`, four 1-wide heads of which the
    # first has q = 1 and k = v = z (the others are 0) give row t of that
    # head sum_j softmax(z[:t+1])_j z_j.
    "gelu": lambda x: gelu_mlp(_ROW12, _ONE12, _ZERO12, _ZERO12x12, x.reshape((12,)), _ONE12x12, _ZERO12).sum(),
    "softmax": lambda x: (
        causal_attention(_unit_rows(x), _ONE4, _ZERO4, 0 * _E00, _E00, _E00, _E0, _ZERO4, _ZERO4, 4, 3) ** 2.0
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
# row (m = ROWS) in front of them.  The `_query` nodes run the same three
# layouts with one query per row, at token QUERY_AT[r] of row r.
# ---------------------------------------------------------------------------

D, HEADS, ROWS, T, PREFIX_LEN = 8, 2, 3, 4, 2
PREFIX_COPIES = {"causal_attention": 0, "causal_attention_shared": 1, "causal_attention_per_row": ROWS}
QUERY_AT = np.array([3, 0, 2])
PREFIX_COPIES.update({name + "_query": m for name, m in PREFIX_COPIES.items()})


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
        args.update({"ln_g": 1.0 + rng.normal(size=d) * 0.5, "ln_b": rng.normal(size=d) * 0.5})
        return args
    return {
        "x": rng.normal(size=(2, 3, d)),
        "w1": rng.normal(size=(d, 4 * d)) * 0.5,
        "b1": rng.normal(size=4 * d),
        "w2": rng.normal(size=(4 * d, d)) * 0.5,
        "b2": rng.normal(size=d),
        "ln_g": 1.0 + rng.normal(size=d) * 0.5,
        "ln_b": rng.normal(size=d) * 0.5,
    }


def _call_fused(node, args):
    if node == "layer_norm":
        return layer_norm(args["x"], args["gain"], args["bias"])
    if node in PREFIX_COPIES:
        m = PREFIX_COPIES[node]
        x = concat([args["prefix"], args["tokens"]], axis=0) if m else args["x"]
        weights = (args[k] for k in ATTENTION_PARAMS)
        query_at = QUERY_AT if node.endswith("_query") else None
        return causal_attention(x, *weights, HEADS, ROWS, (m, PREFIX_LEN if m else 0), query_at)
    return gelu_mlp(*(args[k] for k in ("x", *MLP_PARAMS)))


ATTENTION_PARAMS = ("ln_g", "ln_b", "wq", "wk", "wv", "bq", "bk", "bv")
MLP_PARAMS = ("ln_g", "ln_b", "w1", "b1", "w2", "b2")


FUSED_CASES = [
    ("layer_norm", arg) for arg in ("x", "gain", "bias")
] + [
    (node, arg)
    for node, m in PREFIX_COPIES.items()
    for arg in (("prefix", "tokens") if m else ("x",)) + ATTENTION_PARAMS
] + [
    ("gelu_mlp", arg) for arg in ("x", *MLP_PARAMS)
]


@pytest.mark.parametrize("node,arg", FUSED_CASES, ids=[f"{n}-{a}" for n, a in FUSED_CASES])
def test_gradcheck_fused_nodes(node, arg):
    rng = np.random.default_rng(sum(map(ord, node + arg)))
    for _ in range(3):
        args = {k: Tensor(v, dtype=np.float64) for k, v in _fused_args(node, rng).items()}
        readout = rng.normal(size=_call_fused(node, args).shape)

        def f(t):
            return (_call_fused(node, {**args, arg: t}) * readout).sum()

        ok, err = finite_diff_check(f, args[arg].data, tolerance=1e-6)
        assert ok, f"{node} d/d{arg}: max rel err {err:.3e}"


@pytest.mark.parametrize("node", [n for n in PREFIX_COPIES if not n.endswith("_query")])
def test_attention_query_at_is_the_full_node_at_those_queries(node):
    """One query per row gives the full node's output rows at the queried
    positions, and the same gradients when only those rows are read."""
    rng = np.random.default_rng(21)
    args = {k: Tensor(v, requires_grad=True, dtype=np.float64) for k, v in _fused_args(node, rng).items()}
    readout = rng.normal(size=(ROWS, D))
    m = PREFIX_COPIES[node]
    at = m * PREFIX_LEN + np.arange(ROWS) * T + QUERY_AT
    full = take(_call_fused(node, args), at)
    one = _call_fused(node + "_query", args)
    np.testing.assert_allclose(one.data, full.data, rtol=1e-12, atol=0)
    (full * readout).sum().backward()
    want = {k: t.grad for k, t in args.items()}
    for t in args.values():
        t.grad = None
    (one * readout).sum().backward()
    for k, t in args.items():
        np.testing.assert_allclose(t.grad, want[k], rtol=1e-12, atol=1e-15, err_msg=k)


def _closure_items(fn):
    """What a backward function captures, inside tuples and lists too."""
    found, todo = [], [c.cell_contents for c in fn.__closure__ or ()]
    while todo:
        item = todo.pop()
        if isinstance(item, (tuple, list)):
            todo.extend(item)
        else:
            found.append(item)
    return found


def _closure_arrays(fn):
    return [a for a in _closure_items(fn) if isinstance(a, np.ndarray)]


def test_per_row_prefix_attends_apart_like_a_shared_one():
    """With one prefix copy per row, the token queries' probabilities are
    [rows x h x T x (l + T)], as with a shared prefix, and no
    [rows x h x (l + T) x (l + T)] array is kept: the copies' own queries
    never join their rows'."""
    rng = np.random.default_rng(25)
    args = {k: Tensor(v, requires_grad=True) for k, v in _fused_args("causal_attention_per_row", rng).items()}
    shapes = {a.shape for a in _closure_arrays(_call_fused("causal_attention_per_row", args)._node._backward)}
    keys = PREFIX_LEN + T
    assert (ROWS, HEADS, T, keys) in shapes
    assert (ROWS, HEADS, PREFIX_LEN, PREFIX_LEN) in shapes
    assert (ROWS, HEADS, keys, keys) not in shapes


@pytest.mark.parametrize("node", [n for n, m in PREFIX_COPIES.items() if m])
def test_prefixed_attention_keeps_no_view_of_the_projection(node):
    """With a prefix, the keys and values are new arrays, so the backward
    keeps compact copies of the queries and of the prefix's own q, k and v
    rather than views that pin the whole [positions x 3d] projection, which
    one query per row takes its query from too.  Frozen weights keep no
    input rows to re-form their input from: the one [positions x d] array
    is the normalised input that the layer norm's input gradient reads."""
    rng = np.random.default_rng(26)
    args = {k: Tensor(v, requires_grad=k == "prefix") for k, v in _fused_args(node, rng).items()}
    n_pos = args["prefix"].shape[0] + args["tokens"].shape[0]
    proj_shape = (n_pos, 3 * D)
    rows = 0
    for a in _closure_arrays(_call_fused(node, args)._node._backward):
        while a.base is not None:
            a = a.base
        assert a.shape != proj_shape
        rows += a.shape == (n_pos, D)
    assert rows == 1


def test_fused_nodes_skip_frozen_and_keep_inputs_only():
    """Only what requires a gradient gets one, and no backward captures a
    tensor: not its own output (the graph stays acyclic), and no input but
    a leaf it accumulates into."""
    rng = np.random.default_rng(1)
    for node in ("layer_norm", "causal_attention", "causal_attention_query", "gelu_mlp"):
        args = {k: Tensor(v) for k, v in _fused_args(node, rng).items()}
        args["x"].requires_grad = True
        out = _call_fused(node, args)
        assert out._parents == (args["x"],)
        items = _closure_items(out._node._backward)
        assert not any(c is out or c is out._node for c in items)
        assert [c for c in items if isinstance(c, Tensor)] == [args["x"]]
        if node.startswith("causal_attention"):
            # x's gradient multiplies by the Q/K/V weights, which the backward
            # concatenates again; it keeps no concatenated copy
            kept = _closure_arrays(out._node._backward)
            assert all(any(a is args[w].data for a in kept) for w in ("wq", "wk", "wv"))
            assert (D, 3 * D) not in [a.shape for a in kept]
        out.sum().backward()
        assert args["x"].grad is not None and args["x"].grad.shape == args["x"].shape
        assert all(t.grad is None for k, t in args.items() if k != "x")


# ---------------------------------------------------------------------------
# softmax rows: reductions over the last axis and the probability flush
# ---------------------------------------------------------------------------


def _subnormal(a):
    return (a != 0) & (np.abs(a) < np.finfo(a.dtype).tiny)


def test_row_reductions_match_numpy_and_do_not_depend_on_other_rows():
    rng = np.random.default_rng(22)
    for dtype in (np.float32, np.float64):
        for shape in ((7, 23), (3, 4, 5, 17), (6, 64)):
            a = rng.normal(size=shape).astype(dtype)
            b = rng.normal(size=shape).astype(dtype)
            np.testing.assert_array_equal(ag._row_max(a), a.max(axis=-1, keepdims=True))
            rtol = 1e-5 if dtype == np.float32 else 1e-13
            np.testing.assert_allclose(ag._row_sum(a), a.sum(axis=-1, keepdims=True), rtol=rtol, atol=rtol)
            np.testing.assert_allclose(ag._row_dot(a, b), (a * b).sum(axis=-1, keepdims=True), rtol=rtol, atol=rtol)
            for lo, hi in ((0, 1), (1, 3), (2, shape[0])):
                np.testing.assert_array_equal(ag._row_sum(a[lo:hi]), ag._row_sum(a)[lo:hi])
                np.testing.assert_array_equal(ag._row_dot(a[lo:hi], b[lo:hi]), ag._row_dot(a, b)[lo:hi])


def test_attention_probabilities_are_flushed_and_masked_keys_stay_out():
    rng = np.random.default_rng(23)
    n = 12
    q, k, v = (rng.normal(size=(2, 3, n, 4)).astype(np.float32) * 6.0 for _ in range(3))
    mask = ag._causal_mask(n, np.dtype(np.float32))
    _, p = ag._attend(q, k, v, mask, 0.5)
    assert p.dtype == np.float32
    assert np.all(p[..., mask < 0] == 0)
    assert not np.any((p > 0) & (p < ag.P_FLUSH))
    np.testing.assert_allclose(p.sum(axis=-1), 1.0, rtol=1e-6)


def test_peaked_attention_backward_has_no_subnormals():
    """Scores 6.5 nats apart put some unflushed probabilities, and through
    them some gradients, in float32's subnormal range."""
    rng = np.random.default_rng(24)
    keys = 20
    q = np.array([1.0, 1.2, 0.8], dtype=np.float32).reshape(1, 1, 3, 1)
    k = (-6.5 * np.arange(keys, dtype=np.float32)).reshape(1, 1, keys, 1)
    v = rng.normal(size=(1, 1, keys, 1)).astype(np.float32)
    gh = rng.normal(size=(1, 1, 3, 1)).astype(np.float32)
    mask = np.zeros((3, keys), dtype=np.float32)
    s = q @ k.swapaxes(-1, -2)
    unflushed = np.exp(s - s.max(axis=-1, keepdims=True))
    unflushed /= unflushed.sum(axis=-1, keepdims=True)
    assert _subnormal(unflushed).any()
    ctx, p = ag._attend(q, k, v, mask, 1.0)
    assert not _subnormal(p).any()
    for grad in ag._attend_backward(gh, q, k, v, p, 1.0):
        assert grad.dtype == np.float32
        assert not _subnormal(grad).any()


# ---------------------------------------------------------------------------
# Gaussian CDF of the GELU: a vectorised kernel for float32, scipy's erf for
# float64
# ---------------------------------------------------------------------------


def _exact_cdf(x):
    return 0.5 * special.erfc(-np.asarray(x, dtype=np.float64) / math.sqrt(2.0))


def test_gaussian_cdf_float32_error_and_range():
    x = np.concatenate([np.linspace(-12.0, 12.0, 2_000_001, dtype=np.float32), np.float32([0.0, -0.0])])
    phi = ag.gaussian_cdf(x)
    assert phi.dtype == np.float32
    assert np.abs(phi - _exact_cdf(x)).max() <= 1.5e-7
    assert phi.min() >= 0.0 and phi.max() <= 1.0
    assert np.all(np.diff(phi[:-2]) >= 0)
    assert ag.gaussian_cdf(np.float32([0.0, -0.0])).tolist() == [0.5, 0.5]


def test_gaussian_cdf_float32_tails_and_nan():
    x = np.float32([-np.inf, -1e30, -8.0, 8.0, 1e30, np.inf, np.nan])
    phi = ag.gaussian_cdf(x)
    assert phi[:6].tolist() == [0.0, 0.0, 0.0, 1.0, 1.0, 1.0]
    assert np.isnan(phi[6])


def test_gaussian_cdf_float32_takes_two_buffers():
    """The float32 kernel allocates its result and one working array the
    size of x, no third one."""
    x = np.random.default_rng(1).normal(scale=4.0, size=100_000).astype(np.float32)
    tracemalloc.start()
    try:
        ag.gaussian_cdf(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 2 * x.nbytes <= peak < 2.5 * x.nbytes, peak


def test_gaussian_cdf_float64_is_scipy_erf():
    x = np.random.default_rng(0).normal(scale=4.0, size=10_000)
    x[:3] = (0.0, -0.0, 40.0)
    # the expression the float64 GELU has always used, bit for bit
    expected = 0.5 * (1.0 + special.erf(x * (1.0 / math.sqrt(2.0))))
    phi = ag.gaussian_cdf(x)
    assert phi.dtype == np.float64
    assert np.array_equal(phi, expected)


def test_gelu_mlp_float32_input_gradient_matches_float64():
    rng = np.random.default_rng(3)
    d = 16
    arrays = {
        "x": rng.normal(size=(6, d)),
        "ln_g": 1.0 + rng.normal(size=d) * 0.4,
        "ln_b": rng.normal(size=d) * 0.4,
        "w1": rng.normal(size=(d, 4 * d)) * 0.4,
        "b1": rng.normal(size=4 * d),
        "w2": rng.normal(size=(4 * d, d)) * 0.4,
        "b2": rng.normal(size=d),
    }
    readout = rng.normal(size=(6, d))
    grads = {}
    for dtype in (np.float32, np.float64):
        args = {k: Tensor(v, requires_grad=k == "x", dtype=dtype) for k, v in arrays.items()}
        (gelu_mlp(*args.values()) * Tensor(readout, dtype=dtype)).sum().backward()
        grads[dtype] = args["x"].grad
        assert grads[dtype].dtype == dtype
    g64 = grads[np.float64]
    np.testing.assert_allclose(grads[np.float32], g64, rtol=1e-5, atol=1e-5 * np.abs(g64).max())


def test_gradcheck_matmul_and_structure_ops():
    rng = np.random.default_rng(7)
    w = rng.normal(size=(4, 3))
    rows = rng.normal(size=(3, 5, 2))

    cases = [
        lambda x: (matmul(x, Tensor(w, dtype=np.float64)) ** 2.0).sum(),
        # a 2-D right operand after a 3-D left one: both gradients
        lambda x: (matmul(x.reshape((2, 2, 2)), Tensor(w[:2], dtype=np.float64)) ** 2.0).sum(),
        lambda x: (matmul(Tensor(rows, dtype=np.float64), x) ** 2.0).sum(),
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

    # a function that rounds to float32 is refused, not checked
    with pytest.raises(ValueError, match="float64 output"):
        finite_diff_check(lambda t: ag._new(t.data.astype(np.float32)).sum(), x)


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
        lambda t: logsumexp(t * 0.1).sum(), x, tolerance=1e-6, max_coords=10, rng=rng
    )
    assert ok


# ---------------------------------------------------------------------------
# kl_divergence
# ---------------------------------------------------------------------------


def test_kl_identical_is_zero():
    v = [1.3, -0.2, 4.0]
    out = kl_divergence(np.array(v), Tensor(v))
    assert out.item() == 0.0


def test_kl_derived_value():
    # softmax(ref) = [1/2, 1/2]; softmax(adj) = [1/4, 3/4]
    ref = np.array([0.0, 0.0])
    adj = Tensor([0.0, math.log(3.0)])
    expected = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
    assert math.isclose(kl_divergence(ref, adj).item(), expected, rel_tol=1e-6)


def test_kl_nonnegative_random():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = rng.integers(2, 12)
        a, b = rng.normal(size=n) * 3, rng.normal(size=n) * 3
        assert kl_divergence(a, Tensor(b)).item() >= 0.0


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-20, 20), min_size=2, max_size=8), st.data())
def test_kl_nonnegative_property(ref, data):
    adj = data.draw(st.lists(st.floats(-20, 20), min_size=len(ref), max_size=len(ref)))
    assert kl_divergence(np.array(ref), Tensor(adj)).item() >= 0.0


def test_kl_gradient_flows_to_adjustable_only():
    ref = np.array([0.5, -1.0, 2.0])
    adj = Tensor([0.1, 0.2, 0.3], requires_grad=True, dtype=np.float64)
    kl_divergence(ref, adj).backward()
    assert adj.grad is not None and np.any(adj.grad != 0)
    # the reference is a constant array; a tensor there is refused
    with pytest.raises(TypeError):
        kl_divergence(Tensor(ref, requires_grad=True), adj)

    def f(x):
        return kl_divergence(ref, x)

    rng = np.random.default_rng(5)
    for _ in range(20):
        ok, err = finite_diff_check(f, rng.normal(size=3), tolerance=1e-6)
        assert ok, err


def test_kl_rows_sum_over_rows():
    rng = np.random.default_rng(6)
    ref, adj = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
    rows = kl_divergence(ref, Tensor(adj, dtype=np.float64))
    singles = [kl_divergence(r, Tensor(a, dtype=np.float64)).item() for r, a in zip(ref, adj)]
    assert rows.item() == pytest.approx(sum(singles), rel=1e-12)

    x = Tensor(adj, requires_grad=True)
    kl_divergence(ref, x).backward()
    expected = np.exp(adj) / np.exp(adj).sum(axis=1, keepdims=True) - np.exp(ref) / np.exp(ref).sum(
        axis=1, keepdims=True
    )
    np.testing.assert_allclose(x.grad, expected, rtol=1e-5, atol=1e-7)


def test_kl_rejects_bad_input():
    with pytest.raises(ValueError):
        kl_divergence(np.array([1.0, np.inf]), Tensor([0.0, 0.0]))
    with pytest.raises(ValueError):
        kl_divergence(np.array([1.0, 2.0, 3.0]), Tensor([0.0, 0.0]))
    with pytest.raises(ValueError):
        kl_divergence(np.array([1.0]), Tensor([1.0]))
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


def test_tensors_are_float32_unless_built_float64():
    assert Tensor([1.0]).data.dtype == np.float32
    assert Tensor(np.array([1.0])).data.dtype == np.float32
    assert Tensor([1.0], dtype=np.float64).data.dtype == np.float64
    with pytest.raises(ValueError, match="float32 or float64"):
        Tensor([1.0], dtype=np.int32)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_python_number_takes_the_dtype_of_the_tensor_it_meets(dtype):
    """As NumPy treats Python scalars (NEP 50): bit for bit NumPy's result in
    the tensor's dtype, from either side of the operator."""
    a = np.random.default_rng(8).normal(size=5).astype(dtype)
    t = Tensor(a, dtype=dtype)
    log2 = math.log(2)
    cases = [
        (t * 0.1, a * 0.1),
        (0.1 * t, 0.1 * a),
        (t - log2, a - log2),
        (log2 - t, log2 - a),
        (t + 1e-9, a + 1e-9),
        (ag.div(t, 3), a / 3),
        (ag.div(3.0, t), 3.0 / a),
    ]
    for got, want in cases:
        assert got.data.dtype == want.dtype == dtype
        np.testing.assert_array_equal(got.data, want)


RAW_OPERAND_NODES = {
    "matmul": (lambda rng: {"x": rng.normal(size=(3, 4)), "w": rng.normal(size=(4, 2))},
               lambda a: matmul(a["x"], a["w"])),
    # the tensor is the second operand here
    "concat": (lambda rng: {"x": rng.normal(size=(2, 3)), "y": rng.normal(size=(1, 3))},
               lambda a: concat([a["y"], a["x"]], axis=0)),
    **{node: (lambda rng, node=node: _fused_args(node, rng), lambda a, node=node: _call_fused(node, a))
       for node in ("layer_norm", "causal_attention", "gelu_mlp")},
}


@pytest.mark.parametrize("node", RAW_OPERAND_NODES)
def test_a_raw_array_takes_the_dtype_of_the_tensor_it_meets(node):
    """A raw float64 array beside a float64 tensor is not rounded to float32:
    the output is bit for bit the one with every operand a float64 tensor."""
    make, call = RAW_OPERAND_NODES[node]
    arrays = make(np.random.default_rng(5))
    tensors = {k: Tensor(v, dtype=np.float64) for k, v in arrays.items()}
    x = next(iter(arrays))
    got = call({**arrays, x: tensors[x]}).data
    assert got.dtype == np.float64
    np.testing.assert_array_equal(got, call(tensors).data)


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
        assert _live_tensors() == before + 1  # the graph links nodes, not the forward's tensors
        loss.backward()
        assert _live_tensors() == before + 1  # the graph went with its backward; the root stays
        del loss
        assert _live_tensors() == before
    finally:
        if was_enabled:
            gc.enable()


def test_backward_keeps_leaf_grads_only():
    model, ids = _tiny_lm()
    loss = lm_loss(model, ids)
    sinks, stack = {}, [loss._node]
    while stack:
        sink = stack.pop()
        if id(sink) not in sinks:
            sinks[id(sink)] = sink
            stack.extend(sink._parents)
    # the graph links op nodes and leaf tensors, and only leaves have no parents
    leaves = [s for s in sinks.values() if isinstance(s, Tensor)]
    interior = [s for s in sinks.values() if isinstance(s, ag.Node)]
    assert len(leaves) + len(interior) == len(sinks)
    assert not any(n._parents for n in leaves) and all(n._parents for n in interior)
    loss.backward()
    assert leaves and interior
    assert all(n.requires_grad and n.grad is not None for n in leaves)
    assert all(n.grad is None and not n._parents for n in interior)
    assert loss.grad is None
    assert all(p.grad is not None for p in model.parameters())


# A float64 frozen-teacher answer-position graph over 16 prompted rows of
# 14-20 tokens (8 prompt rows, d = 64, 4 layers): the graph that linked
# tensors, each backward capturing its inputs, kept this many bytes.
TENSOR_PARENT_TRANSFER_GRAPH_BYTES = 12_894_000


def test_transfer_graph_keeps_what_its_backward_reads():
    """A frozen float64 teacher's graph keeps no weight-gradient inputs, no
    residual operands and no fused projection: at most 60% of what the graph
    that linked tensors kept (about 54% when measured).  With a float32
    prompt in front of the transfer's own float64 teacher, which shares the
    float32 weights, the graph is float32 and keeps those weights as they
    are: about 27% when measured."""
    cfg = ModelConfig(n_layers=4, d_model=64, n_heads=4, vocab_size=120, max_seq_len=64)
    rng = np.random.default_rng(1)
    seqs = [rng.integers(0, 120, size=rng.integers(14, 21)) for _ in range(16)]
    model = init_model(cfg, 0)
    cases = ((np.float64, float64_model(model), 0.6), (np.float32, _with_float64_embeddings(model), 0.30))
    for dtype, teacher, share in cases:
        prompt = Tensor(init_prompt(teacher, 8, 0).matrix, requires_grad=True, dtype=dtype)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            loss = answer_log_probs(teacher, seqs, [[3, 4], [5, 6]], prompt).sum()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        loss.backward()
        assert prompt.grad is not None and prompt.grad.dtype == dtype
        assert held <= share * TENSOR_PARENT_TRANSFER_GRAPH_BYTES, (dtype, held)


def _mixed_block(prompt_dtype):
    """A prompt leaf of `prompt_dtype` in front of float64 token rows, through
    float64 prefixed `causal_attention`, `gelu_mlp` and `layer_norm`, read
    out at random; every weight is a frozen float64 tensor."""
    rng = np.random.default_rng(31)
    prompt = Tensor(rng.normal(size=(PREFIX_LEN, D)).astype(np.float32), requires_grad=True, dtype=prompt_dtype)
    f64 = {k: Tensor(v, dtype=np.float64) for k, v in _fused_args("causal_attention_shared", rng).items()}
    ln = {k: Tensor(v, dtype=np.float64) for k, v in _fused_args("layer_norm", rng).items() if k != "x"}
    mlp = {k: Tensor(v, dtype=np.float64) for k, v in _fused_args("gelu_mlp", rng).items() if k != "x"}
    x = concat([prompt, f64["tokens"]], axis=0)
    z = causal_attention(x, *(f64[k] for k in ATTENTION_PARAMS), HEADS, ROWS, (1, PREFIX_LEN))
    out = layer_norm(gelu_mlp(z, *(mlp[k] for k in MLP_PARAMS)), ln["gain"], ln["bias"])
    return prompt, out, (out * rng.normal(size=out.shape)).sum(), [*f64.values(), *ln.values(), *mlp.values()]


def _graph_nodes(loss):
    nodes, stack = {}, [loss._node]
    while stack:
        node = stack.pop()
        if isinstance(node, ag.Node) and id(node) not in nodes:
            nodes[id(node)] = node
            stack.extend(node._parents)
    return list(nodes.values())


def test_a_float32_leaf_takes_a_float32_gradient_through_float64_nodes():
    """Values follow the inputs' dtype and gradients the leaf's: a float32
    prompt in front of float64 rows gives a float64 output, a float32 graph
    and a float32 gradient within float32 rounding of the float64 leaf's."""
    grads = {}
    for dtype in (np.float32, np.float64):
        prompt, out, loss, _ = _mixed_block(dtype)
        assert out.data.dtype == np.float64
        nodes = _graph_nodes(loss)
        assert {n.dtype for n in nodes} == {np.dtype(dtype)}
        assert {a.dtype for n in nodes for a in _closure_arrays(n._backward)} == {np.dtype(dtype)}
        loss.backward()
        grads[dtype] = prompt.grad
        assert prompt.grad.dtype == dtype
    g64 = grads[np.float64]
    np.testing.assert_allclose(grads[np.float32], g64, rtol=1e-5, atol=1e-6 * np.abs(g64).max())


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_graph_of_one_dtype_casts_nothing(dtype):
    """Where the leaf and the data share a dtype, the weights a backward
    multiplies by are the weights' own arrays, not copies, so the gradient
    is the one computed before graphs had a dtype of their own."""
    rng = np.random.default_rng(32)
    nodes = {"gelu_mlp": ("ln_g", "w1", "w2"), "layer_norm": ("gain",), "causal_attention": ("ln_g", "wq", "wk", "wv")}
    for node, weights in nodes.items():
        args = {k: Tensor(v, dtype=dtype) for k, v in _fused_args(node, rng).items()}
        args["x"].requires_grad = True
        kept = _closure_arrays(_call_fused(node, args)._node._backward)
        assert {a.dtype for a in kept} == {np.dtype(dtype)}
        for w in weights:
            assert any(a is args[w].data for a in kept), (node, w)
    x = Tensor(rng.normal(size=(3, D)), requires_grad=True, dtype=dtype)
    w = Tensor(rng.normal(size=(D, 2)), dtype=dtype)
    kept = _closure_arrays(matmul(x, w)._node._backward)
    assert len(kept) == 1 and kept[0] is w.data


def test_training_loop_holds_one_graph_at_a_time():
    """A loop's previous loss must not keep its graph alive into the next
    step's forward: three Adam steps of `lm_loss` on the longest pretraining
    batch (16 x 21 tokens, the default 4-layer teacher) peak about where one
    step does."""
    cfg = ModelConfig(vocab_size=100, d_model=64, n_heads=4, n_layers=4, max_seq_len=64)
    model = init_model(cfg, 0)
    model.set_trainable(True)
    opt = Optimizer(model.parameters(), learning_rate=1e-3)
    ids = np.random.default_rng(0).integers(0, cfg.vocab_size, size=(16, 21))

    def step():
        opt.zero_grad()
        loss = lm_loss(model, ids)
        loss.backward()
        opt.step()
        return loss

    def peak_above_start(steps):
        """Peak bytes allocated above what was live when the steps began;
        like `train_lm`, the loop holds each step's loss into the next."""
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        for _ in range(steps):
            loss = step()
        del loss
        return tracemalloc.get_traced_memory()[1] - start

    tracemalloc.start()
    try:
        step()  # the mask cache, the Adam moments, traced parameters and gradients
        one = peak_above_start(1)
        three = peak_above_start(3)
    finally:
        tracemalloc.stop()
    assert three <= 1.15 * one, (three, one)


def test_a_training_graph_holds_only_what_its_backward_reads():
    """`lm_loss` of the default architecture (4 layers, d = 64, 4 heads) on
    its largest pretraining batch (16 x 21 tokens), every parameter trained,
    holds per layer the arrays the module docstring lists: the attention's
    normalised input, its [rows x 3d] projection (the queries, keys and
    values are views that fill it) and probabilities, the context that the
    output projection's weight gradient reads, the MLP's normalised input
    and its GELU slope and output.  Beside the blocks it holds the final
    layer norm's normalised input and output (the LM head's input) and the
    log-softmax of the logits.  Row statistics, token indices and the
    graph's Python objects take the rest, well under one [rows x d] array
    per layer."""
    cfg = ModelConfig(vocab_size=100, d_model=64, n_heads=4, n_layers=4, max_seq_len=64)
    model = init_model(cfg, 0)
    model.set_trainable(True)
    b, t, d, heads = 16, 21, cfg.d_model, cfg.n_heads
    ids = np.random.default_rng(0).integers(0, cfg.vocab_size, size=(b, t))
    lm_loss(model, ids).backward()  # the mask cache
    rows = b * t
    per_layer = 4 * (rows * d + rows * 3 * d + b * heads * t * t + rows * d + rows * d + 2 * rows * 4 * d)
    listed = cfg.n_layers * per_layer + 4 * (2 * rows * d + b * (t - 1) * cfg.vocab_size)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loss = lm_loss(model, ids)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    loss.backward()
    assert listed <= held <= listed + cfg.n_layers * 4 * rows * d // 2, (held, listed)


def test_second_backward_raises():
    x = Tensor(np.arange(3.0), requires_grad=True)
    loss = (x * x).sum()
    loss.backward()
    with pytest.raises(RuntimeError, match="backward already ran"):
        loss.backward()
    np.testing.assert_array_equal(x.grad, 2.0 * np.arange(3.0))


def test_consumed_graph_feeding_a_new_loss_raises_before_any_gradient():
    x = Tensor(np.arange(3.0), requires_grad=True)
    y = x * 2.0
    y.sum().backward()
    first = x.grad.copy()
    # x gets a gradient straight from the new loss too, so a walk that
    # failed only on reaching y would leave a half-accumulated x.grad
    loss = (y * 3.0 + x).sum()
    with pytest.raises(RuntimeError, match="backward already ran"):
        loss.backward()
    np.testing.assert_array_equal(x.grad, first)


def _gelu_mlp_arrays(dtype, rows=64, d=16):
    rng = np.random.default_rng(5)
    shapes = {"x": (rows, d), "w1": (d, 4 * d), "b1": (4 * d,), "w2": (4 * d, d), "b2": (d,)}
    shapes.update(ln_g=(d,), ln_b=(d,))
    arrays = {k: (rng.normal(size=shape) * 0.5).astype(dtype) for k, shape in shapes.items()}
    arrays["ln_g"] += 1
    return arrays


def _call_gelu_mlp(args):
    return gelu_mlp(*(args[k] for k in ("x", *MLP_PARAMS)))


# trained inputs: ([rows x 4d] arrays, [rows x d] arrays) the node keeps
GELU_KEPT = {
    (): (0, 0),
    ("b2",): (0, 0),
    ("x",): (1, 1),
    ("x", "w2"): (2, 1),
    ("w1", "w2"): (2, 1),
    ("ln_g",): (1, 1),
    ("ln_b",): (1, 0),
}


@pytest.mark.parametrize("trained,kept", GELU_KEPT.items(), ids=["-".join(t) or "none" for t in GELU_KEPT])
def test_gelu_mlp_graph_holds_what_its_backward_reads(trained, kept):
    """Frozen weights keep one [rows x 4d] array (the GELU's slope) and, for
    the input's or the layer-norm gain's gradient, the normalised input
    ([rows x d]); a trained w2 adds the GELU output, and a trained w1 re-forms
    its input from the normalised input; nothing to train keeps nothing."""
    arrays = _gelu_mlp_arrays(np.float32, rows=512)
    hidden = arrays["x"].shape[0] * arrays["w1"].shape[1] * 4
    args = {k: Tensor(v, requires_grad=k in trained) for k, v in arrays.items()}
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = _call_gelu_mlp(args)
        held = tracemalloc.get_traced_memory()[0] - before - out.data.nbytes
    finally:
        tracemalloc.stop()
    wide, narrow = kept
    assert abs(held - wide * hidden - narrow * hidden // 4) < hidden // 16, (held, hidden)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_mlp_input_gradient_is_the_recomputed_slope_formula(dtype):
    """The slope formed in the forward gives, bit for bit, the input
    gradient of a backward that recomputes it from the pre-activation."""
    a = _gelu_mlp_arrays(dtype)
    g = np.random.default_rng(6).normal(size=a["x"].shape).astype(dtype)
    args = {k: Tensor(v, requires_grad=k == "x", dtype=dtype) for k, v in a.items()}
    (_call_gelu_mlp(args) * Tensor(g, dtype=dtype)).sum().backward()
    pre = layer_norm(Tensor(a["x"], dtype=dtype), a["ln_g"], a["ln_b"]).data @ a["w1"] + a["b1"]
    cdf = ag.gaussian_cdf(pre)
    slope = pre * pre
    slope *= -0.5
    np.exp(slope, out=slope)
    slope *= ag._INV_SQRT2PI
    slope *= pre
    slope += cdf
    dpre = g @ a["w2"].T
    dpre *= slope
    # the layer norm's input gradient of dpre @ w1^T
    x = Tensor(a["x"], requires_grad=True, dtype=dtype)
    (layer_norm(x, a["ln_g"], a["ln_b"]) * Tensor(dpre @ a["w1"].T, dtype=dtype)).sum().backward()
    assert args["x"].grad.dtype == dtype
    np.testing.assert_array_equal(args["x"].grad, x.grad)


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
        x.grad = None  # as an optimizer loop does; nothing of the step survives it

    for _ in range(3):
        step()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(20):
        step()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 64  # one step touches well over 1000 pages of arrays
