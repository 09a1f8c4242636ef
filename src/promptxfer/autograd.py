"""Reverse-mode automatic differentiation over dense numpy arrays.

Computation is float32 throughout: leaf tensors are created at the
process-wide default dtype, float32, and every op keeps its inputs' dtype
(its scalar constants are Python floats, which never widen a float32
array).  ``precision("float64")`` and float64 arrays are used only for
gradient checks and for the prompt transfer's objective
(``transfer.transfer_prompt``), which compares differences of near-equal
log-probabilities.

Graphs are acyclic.  Each op's output holds its parents and a backward
function ``bw(g)`` that receives the upstream gradient as its argument and
captures only its inputs and the numpy arrays it needs, never the output
tensor.  A graph is therefore freed by reference counting the moment its
output is dropped, with no work left for the cyclic garbage collector.
``backward()`` keeps leaf gradients only: once an interior node's backward
has run, its gradient is released.  A graph must be driven by a single
thread; independent graphs may run in parallel.

A transformer block is three fused nodes, each with a hand-written
backward.  What each backward keeps alive, besides its input tensors:

- ``layer_norm``: the normalised input and the reciprocal standard
  deviation per row.
- ``causal_attention``: the concatenated Q/K/V weight, the fused Q/K/V
  projection (``[positions x 3d]``), each row's keys and values with its
  prefix copy in front (``[b x heads x (l + T) x dh]``) and the attention
  probabilities: ``[b x heads x T x (l + T)]`` plus the shared prefix's own
  ``[heads x l x l]``, or ``[b x heads x (l + T) x (l + T)]`` with one
  prefix copy per row.  The softmax gradient is formed from the saved
  probabilities P as P * (dP - rowsum(dP * P)), the form the
  FlashAttention backward uses (Dao et al. 2022).
- ``gelu_mlp``: the pre-activation and the Gaussian CDF at it
  (``[rows x 4d]`` each); the GELU output is recomputed for the ``w2``
  gradient.

The output projection and the LM head are ``matmul``, whose right operand
is always a 2-D weight, so it also runs as one GEMM over the flattened rows.

Because each training step frees its whole graph at once, glibc would hand
the top of its heap back to the kernel after almost every step, and the next
step would fault the same pages in again.  Whether the top is free depends on
where long-lived blocks happened to land, so the cost changed from one seed
to the next.  On import this module therefore keeps freed heap memory in the
process (``_keep_freed_heap``); the resident high-water mark is unchanged.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import sys
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy import special as _special

_DEFAULT_DTYPE = np.dtype(np.float32)
_ALLOWED_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

# glibc mallopt parameters and the values glibc's own dynamic threshold
# reaches at most on 64-bit: blocks up to 32 MiB come from the heap, and the
# heap top is returned to the kernel only once more than 64 MiB of it is free.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 2 * _MMAP_THRESHOLD


def _keep_freed_heap() -> bool:
    """Fix glibc's trim and mmap thresholds so that memory a step frees is
    reused by the next step instead of being unmapped and faulted in again.
    Returns False where the C library has no ``mallopt``."""
    if not sys.platform.startswith("linux"):
        return False
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    ok = mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    return bool(ok and mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD))


_keep_freed_heap()


def set_default_dtype(dtype) -> None:
    global _DEFAULT_DTYPE
    dt = np.dtype(dtype)
    if dt not in _ALLOWED_DTYPES:
        raise ValueError(f"default dtype must be float32 or float64, got {dt}")
    _DEFAULT_DTYPE = dt


@contextlib.contextmanager
def precision(dtype):
    """Temporarily switch the default dtype (e.g. ``precision("float64")``)."""
    global _DEFAULT_DTYPE
    old = _DEFAULT_DTYPE
    set_default_dtype(dtype)
    try:
        yield
    finally:
        _DEFAULT_DTYPE = old


class Tensor:
    """Dense real tensor with an optional gradient of identical shape."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=_DEFAULT_DTYPE)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        return _new(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def _acc(self, g: np.ndarray) -> None:
        if self.grad is None:
            if not (g.flags.owndata and g.flags.writeable):
                g = g.copy()
            self.grad = g
        else:
            self.grad = self.grad + g

    def backward(self) -> None:
        if self.data.size != 1:
            raise ValueError("backward() is defined for scalar outputs only")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self._acc(np.ones_like(self.data))
        for node in reversed(order):
            if node._backward is not None:
                node._backward(node.grad)
                node.grad = None

    # Operator sugar; all routing goes through the module-level ops.
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __pow__(self, k):
        return power(self, k)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, shape):
        return reshape(self, shape)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{flag})"


def _new(data: np.ndarray) -> Tensor:
    t = object.__new__(Tensor)
    t.data = data
    t.grad = None
    t.requires_grad = False
    t._backward = None
    t._parents = ()
    return t


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _graph(out: Tensor, parents: Iterable[Tensor], backward: Callable[[np.ndarray], None]) -> None:
    live = tuple(p for p in parents if p.requires_grad or p._parents)
    if live:
        out.requires_grad = True
        out._parents = live
        out._backward = backward


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def add(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    out = _new(a.data + b.data)

    def bw(g):
        if a.requires_grad:
            a._acc(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._acc(_unbroadcast(g, b.data.shape))

    _graph(out, (a, b), bw)
    return out


def sub(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    out = _new(a.data - b.data)

    def bw(g):
        if a.requires_grad:
            a._acc(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._acc(_unbroadcast(-g, b.data.shape))

    _graph(out, (a, b), bw)
    return out


def mul(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    out = _new(a.data * b.data)

    def bw(g):
        if a.requires_grad:
            a._acc(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._acc(_unbroadcast(g * a.data, b.data.shape))

    _graph(out, (a, b), bw)
    return out


def div(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    out = _new(a.data / b.data)

    def bw(g):
        if a.requires_grad:
            a._acc(_unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            b._acc(_unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    _graph(out, (a, b), bw)
    return out


def power(a, k: float) -> Tensor:
    a = _lift(a)
    k = float(k)
    out = _new(a.data**k)

    def bw(g):
        a._acc(g * (k * a.data ** (k - 1)))

    _graph(out, (a,), bw)
    return out


def matmul(a, b) -> Tensor:
    """a @ b for a weight b ([k x n]) and a of any rank >= 2: one GEMM over
    a's flattened rows, forward and backward."""
    a, b = _lift(a), _lift(b)
    if a.ndim < 2 or b.ndim != 2:
        raise ValueError("matmul takes a left operand of rank >= 2 and a 2-D right operand")
    a2 = a.data.reshape(-1, a.data.shape[-1])
    out = _new((a2 @ b.data).reshape(a.data.shape[:-1] + b.data.shape[1:]))

    def bw(g):
        g2 = g.reshape(-1, g.shape[-1])
        if a.requires_grad:
            a._acc((g2 @ b.data.T).reshape(a.data.shape))
        if b.requires_grad:
            b._acc(a2.T @ g2)

    _graph(out, (a, b), bw)
    return out


def tsum(a, axis=None, keepdims=False) -> Tensor:
    a = _lift(a)
    out = _new(np.sum(a.data, axis=axis, keepdims=keepdims))

    def bw(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        a._acc(np.broadcast_to(g, a.data.shape))

    _graph(out, (a,), bw)
    return out


def tmean(a, axis=None, keepdims=False) -> Tensor:
    a = _lift(a)
    out = _new(np.mean(a.data, axis=axis, keepdims=keepdims))
    count = a.data.size if axis is None else math.prod(a.data.shape[i] for i in np.atleast_1d(axis))

    def bw(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        a._acc(np.broadcast_to(g, a.data.shape) / count)

    _graph(out, (a,), bw)
    return out


def reshape(a, shape) -> Tensor:
    a = _lift(a)
    out = _new(a.data.reshape(shape))

    def bw(g):
        a._acc(g.reshape(a.data.shape))

    _graph(out, (a,), bw)
    return out


def transpose(a, axes) -> Tensor:
    a = _lift(a)
    axes = tuple(axes)
    out = _new(np.transpose(a.data, axes))
    inv = tuple(np.argsort(axes))

    def bw(g):
        a._acc(np.transpose(g, inv))

    _graph(out, (a,), bw)
    return out


def take(a, indices, axis: int = 0) -> Tensor:
    """Index-select along an axis with a 1-D index array; duplicate indices
    accumulate in backward."""
    a = _lift(a)
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ValueError("take expects a 1-D index array")
    out = _new(np.take(a.data, idx, axis=axis))
    idx = idx % a.data.shape[axis]  # np.take has checked the range
    unique = bool(np.all(idx[1:] > idx[:-1]))

    def bw(g):
        buf = np.zeros_like(a.data)
        dst, src = np.moveaxis(buf, axis, 0), np.moveaxis(g, axis, 0)
        if unique:
            dst[idx] = src
        else:
            # grouped sum: rows with equal indices are adjacent after a
            # stable sort, and reduceat adds each run of them
            order = np.argsort(idx, kind="stable")
            sorted_idx = idx[order]
            starts = np.flatnonzero(np.r_[True, sorted_idx[1:] != sorted_idx[:-1]])
            dst[sorted_idx[starts]] = np.add.reduceat(src[order], starts, axis=0)
        a._acc(buf)

    _graph(out, (a,), bw)
    return out


def take_along_last(a, indices) -> Tensor:
    """out[...] = a[..., indices[...]]; one index per leading position."""
    a = _lift(a)
    idx = np.asarray(indices, dtype=np.int64)
    if idx.shape != a.data.shape[:-1]:
        raise ValueError("index shape must match the tensor shape minus the last axis")
    out = _new(np.take_along_axis(a.data, idx[..., None], axis=-1)[..., 0])

    def bw(g):
        buf = np.zeros_like(a.data)
        flat = buf.reshape(-1, a.data.shape[-1])
        flat[np.arange(flat.shape[0]), idx.reshape(-1)] += g.reshape(-1)
        a._acc(buf)

    _graph(out, (a,), bw)
    return out


def narrow(a, axis: int, start: int, length: int) -> Tensor:
    a = _lift(a)
    sl = [slice(None)] * a.ndim
    sl[axis] = slice(start, start + length)
    sl = tuple(sl)
    out = _new(a.data[sl])

    def bw(g):
        buf = np.zeros_like(a.data)
        buf[sl] = g
        a._acc(buf)

    _graph(out, (a,), bw)
    return out


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    ts = [_lift(t) for t in tensors]
    out = _new(np.concatenate([t.data for t in ts], axis=axis))
    sizes = [t.data.shape[axis] for t in ts]

    def bw(g):
        offset = 0
        for t, size in zip(ts, sizes):
            if t.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(offset, offset + size)
                t._acc(g[tuple(sl)])
            offset += size

    _graph(out, ts, bw)
    return out


# -- fused transformer-layer nodes ------------------------------------------
# Each is one graph node with a hand-written backward.  Weight and bias
# gradients are single 2-D GEMMs or sums over the [rows x d] flattened
# activations, and are computed only for parameters that require them.


def layer_norm(x, gain, bias, eps: float) -> Tensor:
    """(x - mean) / sqrt(var + eps) * gain + bias over the last axis."""
    x, gain, bias = _lift(x), _lift(gain), _lift(bias)
    xc = x.data - x.data.mean(axis=-1, keepdims=True)
    rstd = ((xc * xc).mean(axis=-1, keepdims=True) + eps) ** -0.5
    xhat = xc * rstd
    del xc
    out = _new(xhat * gain.data + bias.data)

    def bw(g):
        d = g.shape[-1]
        if gain.requires_grad:
            gain._acc((g * xhat).reshape(-1, d).sum(axis=0))
        if bias.requires_grad:
            bias._acc(g.reshape(-1, d).sum(axis=0))
        if x.requires_grad:
            gy = g * gain.data
            mean_gy = gy.mean(axis=-1, keepdims=True)
            mean_gyx = (gy * xhat).mean(axis=-1, keepdims=True)
            x._acc(rstd * (gy - mean_gy - xhat * mean_gyx))

    _graph(out, (x, gain, bias), bw)
    return out


MASK_FILL = -1e9


@functools.lru_cache(maxsize=None)
def _causal_mask(n: int, dtype: np.dtype) -> np.ndarray:
    """Additive [n x n] mask: MASK_FILL above the diagonal, 0 elsewhere."""
    mask = np.triu(np.full((n, n), MASK_FILL, dtype=dtype), k=1)
    mask.flags.writeable = False
    return mask


def _attend(q, k, v, mask, scale):
    """softmax(q k^T * scale + mask) v and the probabilities."""
    # numpy's batched matmul multiplies a contiguous k^T (here and v^T in the
    # backward) faster than the strided view, by more than the copy costs
    p = q @ np.ascontiguousarray(k.swapaxes(-1, -2))
    p *= scale
    p += mask
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    return p @ v, p


def _attend_backward(gh, q, k, v, p, scale):
    """(dq, dk, dv) of `_attend`; the softmax gradient is formed from the
    saved probabilities."""
    dv = p.swapaxes(-1, -2) @ gh
    ds = gh @ np.ascontiguousarray(v.swapaxes(-1, -2))
    ds -= (ds * p).sum(axis=-1, keepdims=True)
    ds *= p
    ds *= scale
    return ds @ k, ds.swapaxes(-1, -2) @ q, dv


def causal_attention(x, wq, wk, wv, bq, bk, bv, n_heads: int, rows: int, prefix: tuple[int, int] = (0, 0)) -> Tensor:
    """Multi-head causal self-attention before the output projection, over
    the flat hidden state x [m*l + rows*T x d]: `prefix` = (m, l) gives m
    copies of an l-position prefix, then come `rows` sequences of T token
    positions each.  m is 1 (one prefix that every row shares) or `rows`
    (one copy per row); m*l = 0 is a batch without a prefix.

    Prefix queries attend causally within their copy: they never see a
    token, so one copy serves all its rows.  Token queries attend to their
    row's prefix copy, then causally to their own row.  Per head this is
    softmax(Q K^T / sqrt(dh) + mask) V, with heads concatenated back to
    [m*l + rows*T x d], exactly what each row would get with its prefix
    prepended.  Q, K and V come from one GEMM over all positions.  With one
    copy per row, a copy's queries join its row's, so each row is one
    [l + T]-query attention; a shared prefix attends once on its own."""
    x = _lift(x)
    weights = tuple(_lift(t) for t in (wq, wk, wv))
    biases = tuple(_lift(t) for t in (bq, bk, bv))
    n_pos, d = x.data.shape
    m, l = prefix
    n_pre = m * l
    n = (n_pos - n_pre) // rows
    if n_pre and m not in (1, rows) or n_pre + rows * n != n_pos:
        raise ValueError(f"{n_pos} positions do not split into {m} x {l} prefix and {rows} rows")
    h, dh = n_heads, d // n_heads
    scale = dh**-0.5
    w = np.concatenate([t.data for t in weights], axis=1)
    x2 = x.data
    qkv = x2 @ w + np.concatenate([t.data for t in biases])
    q, k, v = qkv[n_pre:].reshape(rows, n, 3, h, dh).transpose(2, 0, 3, 1, 4)  # each [rows x h x T x dh]
    shared = None  # q, k, v and probabilities of a shared prefix's own attention
    if n_pre:
        qp, kp, vp = qkv[:n_pre].reshape(m, l, 3, h, dh).transpose(2, 0, 3, 1, 4)  # each [m x h x l x dh]
        k = np.concatenate([np.broadcast_to(kp, (rows, h, l, dh)), k], axis=2)
        v = np.concatenate([np.broadcast_to(vp, (rows, h, l, dh)), v], axis=2)
        if m == rows:
            q = np.concatenate([qp, q], axis=2)
        else:
            ctx_pre, pp = _attend(qp, kp, vp, _causal_mask(l, qkv.dtype), scale)
            shared = (qp, kp, vp, pp)
    n_q = q.shape[2]  # queries per row: T, or l + T when the prefix joins the row
    ctx, p = _attend(q, k, v, _causal_mask(l + n, qkv.dtype)[l + n - n_q :], scale)
    out = np.empty((n_pos, d), dtype=ctx.dtype)
    out[n_pre:].reshape(rows, n, h, dh)[...] = ctx[:, :, n_q - n :].transpose(0, 2, 1, 3)
    if n_pre:
        if shared is None:
            ctx_pre = ctx[:, :, :l]
        out[:n_pre].reshape(m, l, h, dh)[...] = ctx_pre.transpose(0, 2, 1, 3)
    out = _new(out)

    def bw(g):
        dqkv = np.empty((n_pos, 3 * d), dtype=np.result_type(g, qkv))
        gh = g[n_pre:].reshape(rows, n, h, dh).transpose(0, 2, 1, 3)
        gh_pre = g[:n_pre].reshape(m, l, h, dh).transpose(0, 2, 1, 3)
        if n_q > n:
            gh = np.concatenate([gh_pre, gh], axis=2)
        dq, dk, dv = _attend_backward(gh, q, k, v, p, scale)
        tok = dqkv[n_pre:].reshape(rows, n, 3, h, dh)
        for i, grad in enumerate((dq[:, :, n_q - n :], dk[:, :, l:], dv[:, :, l:])):
            tok[:, :, i] = grad.transpose(0, 2, 1, 3)
        if n_pre:
            dqp, dkp, dvp = dq[:, :, :l], dk[:, :, :l], dv[:, :, :l]
            if shared is not None:
                # every row's reads of the shared keys and values add up
                dqp, dk_own, dv_own = _attend_backward(gh_pre, *shared, scale)
                dkp = dk_own + dkp.sum(axis=0, keepdims=True)
                dvp = dv_own + dvp.sum(axis=0, keepdims=True)
            pre = dqkv[:n_pre].reshape(m, l, 3, h, dh)
            for i, grad in enumerate((dqp, dkp, dvp)):
                pre[:, :, i] = grad.transpose(0, 2, 1, 3)
        if x.requires_grad:
            x._acc(dqkv @ w.T)
        if any(t.requires_grad for t in weights):
            dw = x2.T @ dqkv
            for i, t in enumerate(weights):
                if t.requires_grad:
                    t._acc(dw[:, i * d : (i + 1) * d])
        if any(t.requires_grad for t in biases):
            db = dqkv.sum(axis=0)
            for i, t in enumerate(biases):
                if t.requires_grad:
                    t._acc(db[i * d : (i + 1) * d])

    _graph(out, (x, *weights, *biases), bw)
    return out


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gelu_mlp(x, w1, b1, w2, b2) -> Tensor:
    """GELU(x @ w1 + b1) @ w2 + b2 over the last axis, with the exact GELU
    x * Phi(x) (Gaussian CDF)."""
    x, w1, b1, w2, b2 = (_lift(t) for t in (x, w1, b1, w2, b2))
    x2 = x.data.reshape(-1, x.data.shape[-1])
    pre = x2 @ w1.data + b1.data
    cdf = 0.5 * (1.0 + _special.erf(pre * _INV_SQRT2))
    out = _new(((pre * cdf) @ w2.data + b2.data).reshape(x.data.shape[:-1] + w2.data.shape[1:]))

    def bw(g):
        g2 = g.reshape(-1, g.shape[-1])
        if w2.requires_grad:
            w2._acc((pre * cdf).T @ g2)
        if b2.requires_grad:
            b2._acc(g2.sum(axis=0))
        if not (x.requires_grad or w1.requires_grad or b1.requires_grad):
            return
        pdf = _INV_SQRT2PI * np.exp(-0.5 * pre * pre)
        dpre = (g2 @ w2.data.T) * (cdf + pre * pdf)
        if w1.requires_grad:
            w1._acc(x2.T @ dpre)
        if b1.requires_grad:
            b1._acc(dpre.sum(axis=0))
        if x.requires_grad:
            x._acc((dpre @ w1.data.T).reshape(x.data.shape))

    _graph(out, (x, w1, b1, w2, b2), bw)
    return out


def _np_log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    m = x.max(axis=axis, keepdims=True)
    s = x - m
    return s - np.log(np.sum(np.exp(s), axis=axis, keepdims=True))


def log_softmax(a, axis: int = -1) -> Tensor:
    a = _lift(a)
    y = _np_log_softmax(a.data, axis=axis)
    out = _new(y)

    def bw(g):
        a._acc(g - np.exp(y) * g.sum(axis=axis, keepdims=True))

    _graph(out, (a,), bw)
    return out


def logsumexp(a, axis: int = -1, keepdims: bool = False) -> Tensor:
    a = _lift(a)
    m = a.data.max(axis=axis, keepdims=True)
    lse = m + np.log(np.sum(np.exp(a.data - m), axis=axis, keepdims=True))
    out = _new(lse if keepdims else np.squeeze(lse, axis=axis))

    def bw(g):
        if not keepdims:
            g = np.expand_dims(g, axis)
        a._acc(g * np.exp(a.data - lse))

    _graph(out, (a,), bw)
    return out


def _check_finite_vector(x: np.ndarray, name: str) -> None:
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} contains non-finite values")


def kl_divergence(reference_logits, adjustable_logits) -> Tensor:
    """KL(softmax(reference) || softmax(adjustable)) in nats, for two logit
    vectors, or summed over the rows of two [n x C] logit arrays.

    The reference side is treated as a constant; gradient flows into the
    adjustable logits only.
    """
    adj = _lift(adjustable_logits)
    # the reference follows the adjustable side's dtype so that identical
    # inputs produce an exact zero
    ref = reference_logits.data if isinstance(reference_logits, Tensor) else np.asarray(reference_logits)
    ref = np.asarray(ref, dtype=adj.data.dtype)
    if ref.ndim not in (1, 2) or adj.ndim not in (1, 2):
        raise ValueError("kl_divergence expects logit vectors or [n x C] rows of logits")
    if ref.shape != adj.shape:
        raise ValueError(f"logit length mismatch: {ref.shape} vs {adj.shape}")
    if ref.shape[-1] < 2:
        raise ValueError("kl_divergence needs at least 2 logits")
    _check_finite_vector(ref, "reference logits")
    _check_finite_vector(adj.data, "adjustable logits")
    logp = _np_log_softmax(ref)
    p = np.exp(logp)
    logq = log_softmax(adj)
    kl = tsum(mul(_new(p), sub(_new(logp), logq)))
    # KL >= 0; a negative total is rounding of a near-zero divergence in
    # float32.  Only the value of the total is clamped, so the gradient is
    # unchanged.
    kl.data = np.maximum(kl.data, 0)
    return kl


def finite_diff_check(
    f: Callable[[Tensor], Tensor],
    x,
    tolerance: float = 1e-6,
    step: float = 1e-5,
    max_coords: int | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[bool, float]:
    """Compare the autodiff gradient of f at x against central differences.

    Runs in float64; constants captured by `f` should be float64 too or the
    quantization noise of float32 will dominate the difference quotients.
    Returns (max relative error < tolerance, max relative error).  When
    `max_coords` is set only a random subset of coordinates is probed.
    """
    with precision(np.float64):
        base = np.array(x.data if isinstance(x, Tensor) else x, dtype=np.float64)
        xt = Tensor(base.copy(), requires_grad=True)
        out = f(xt)
        if out.size != 1:
            raise ValueError("finite_diff_check expects a scalar-valued function")
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
            hi = f(Tensor(flat.reshape(base.shape))).item()
            flat[i] = orig - step
            lo = f(Tensor(flat.reshape(base.shape))).item()
            flat[i] = orig
            fd = (hi - lo) / (2.0 * step)
            rel = abs(g[i] - fd) / max(abs(g[i]), abs(fd), 1.0)
            max_rel = max(max_rel, rel)
    return max_rel < tolerance, max_rel
