"""Reverse-mode automatic differentiation over dense numpy arrays.

Training, tuning and scoring compute in float32.  Precision belongs to the
data, not to process state: values are computed in the inputs' dtype and
gradients in the leaves' dtype.  A ``Tensor`` is float32 unless built with
``dtype=np.float64``; an op's output takes the promoted dtype of its
inputs, and a non-tensor operand beside a tensor, such as a Python number
or a raw array, takes the dtype of the first tensor operand of its op, as
NumPy treats Python scalars (NEP 50).  A graph node has a dtype of its own:
the promoted dtype of the sinks it passes its gradient to (a leaf's data
dtype, or another node's).  The op keeps the arrays its backward reads in
that dtype (activations, probabilities, the GELU's slope and the frozen
weights an input gradient multiplies by) and runs its backward in it, and
every sink casts the gradient that reaches it to its own dtype (``_acc``).
In a graph of one dtype nothing is cast.  Float64 data is built only for
gradient checks and for the prompt transfer (``transfer.transfer_prompt``),
whose objective compares differences of near-equal log-probabilities.  Its
float32 prompt leaf in front of a float64 teacher gives float64 values and
a float32 graph, as mixed-precision training keeps high precision only
where accuracy needs it (Micikevicius et al. 2018).

The GELU's Gaussian CDF (``gaussian_cdf``) is the one op whose kernel
depends on the dtype.  scipy's erf runs a scalar loop, about 24 ns per
element against 3.4 ns for the kernel below (one x86-64 AVX-512 core), and
it was the largest self time of a training step.  A float32 array
therefore takes a vectorised polynomial-tanh kernel, within 1e-7 of the
CDF, which is float32 rounding level.  A float64 array keeps scipy's erf,
exact to double rounding, because the transfer objective's differences of
near-equal log-probabilities need double-accurate arithmetic throughout its
forward.

Graphs are acyclic and link nodes that hold no forward data, as PyTorch's
autograd does (Paszke et al. 2019).  An op with an input that needs a
gradient gives its output a ``Node``: a slot for the gradient that reaches
it, a backward function ``bw(g)`` that receives that gradient, and the
sinks it passes gradients to (``_parents``): the nodes of its inputs, and
the input itself for a leaf that requires a gradient.  ``bw`` captures
those sinks, the shapes and dtypes it needs and only the arrays it reads,
never a tensor other than such a leaf.  A forward's intermediate tensors
therefore die as it returns, and their arrays with them unless some
backward reads them: ``add``, ``sub`` and the reshaping and indexing ops
keep shapes alone; ``mul`` and ``div`` keep an operand only to form the
other's gradient; ``matmul`` keeps its left operand only when the weight
needs a gradient and the weight only when the left operand does;
``log_softmax`` keeps its output and ``logsumexp`` its input and result.
Reference counting alone frees a graph, with no work left for the cyclic
garbage collector, and it does so as ``backward()`` walks it, not when its
root is dropped: once a node's backward has run, the node gives up its
gradient, its backward function (with the arrays that function kept) and
its parents.  A training loop's previous loss therefore holds nothing but
its own value into the next step's forward.  Leaf gradients stay.  Any
node of a consumed graph keeps a backward that raises ``RuntimeError``, and
a later ``backward()`` that reaches one raises before it accumulates any
gradient; nothing here runs backward twice through one graph.  A graph must
be driven by a single thread; independent graphs may run in parallel.

A transformer block is three fused nodes, each with a hand-written
backward.  Besides the weights a backward multiplies by, what each keeps
alive until it runs, in the node's dtype.  Where that differs from the
data's, as in the transfer, each kept array is a compact cast copy made as
the op returns, the frozen weights included (about 0.15 MB per d = 64
block in float32):

- ``layer_norm``: the normalised input, when the input or the gain needs a
  gradient, and the reciprocal standard deviation per row.
- ``causal_attention``: each row's keys and values with its prefix copy in
  front (``[b x heads x (l + T) x dh]``), the token queries
  (``[b x heads x T x dh]``) and their attention probabilities
  (``[b x heads x T x (l + T)]``); with a prefix, also each copy's own
  queries, keys and values (``[m x heads x l x dh]`` each, m = 1 or b
  copies) and the probabilities of its own attention
  (``[m x heads x l x l]``); the input rows only when a weight needs a
  gradient, and the concatenated Q/K/V weight only when the input does.
  Q, K and V come from one fused ``[positions x 3d]`` projection.  With a
  prefix the keys and values are new arrays, and the queries and the
  copies' own q/k/v are kept as compact copies, so nothing pins that
  projection, which goes before the token queries attend; without one, the
  queries, keys and values kept are views that fill it, unless they are
  cast.  With ``query_at`` (one query per row) each row's query is taken
  from the Q columns of that same projection, and it keeps the same keys
  and values (without a prefix, views that pin the projection), a copy of
  the queries (``[b x heads x 1 x dh]``), ``[b x heads x 1 x (l + T)]``
  probabilities, and no prefix attention of its own.  The softmax gradient
  is formed from the saved probabilities P as P * (dP - rowsum(dP * P)),
  the form the FlashAttention backward uses (Dao et al. 2022).
- ``gelu_mlp``: the GELU's slope at the pre-activation when the input,
  ``w1`` or ``b1`` needs a gradient, the GELU output when ``w2`` does
  (``[rows x 4d]`` each, float32 in training, scoring and the transfer),
  and the input rows when ``w1`` does.  The slope is formed in the forward,
  in the node's dtype, and the output in place of the Gaussian CDF, so a
  frozen-weight graph (tuning, DP-SGD, the transfer) keeps one such array
  per MLP.

The output projection and the LM head are ``matmul``, whose right operand
is always a 2-D weight, so it also runs as one GEMM over the flattened rows.

Softmax rows are short (one per query, l + T keys), and numpy reduces a
short last axis one row at a time.  The row max is therefore taken from a
copy with that axis first, which is exact.  Row sums and row dot products
use ``np.einsum``, which reduces each row on its own, so a row's value does
not depend on the rows batched beside it.  Row sums by a BLAS GEMV against
a ones vector do depend on them: with them, a ragged batch no longer
matched its rows in another order bit for bit.  Layer norm's means use the
same helpers.  Probabilities below ``P_FLUSH`` (2^-60) are set to exactly
0.  They lie far below the rounding error of a row's weighted sum, but in a
trained model's peaked rows they are float32 subnormals, which slow the
backward's GEMMs by a factor of about four wherever they reach.  Zero, not
a floor, keeps masked keys exactly out.

Because each training step frees its whole graph at once, glibc would hand
the top of its heap back to the kernel after almost every step, and the next
step would fault the same pages in again.  Whether the top is free depends on
where long-lived blocks happened to land, so the cost changed from one seed
to the next.  On import this module therefore keeps freed heap memory in the
process (``_keep_freed_heap``); the resident high-water mark is unchanged.
On perfbench's post and post_dp workloads (seeds 20-23, one 2-core host), a
run made 16.5k-16.9k minor page faults with 0.04-0.07 s of system time;
without the call it made 200k-311k with 0.34-0.56 s, and its ``prompt_s``
was higher in 7 of the 8 pairs.
"""

from __future__ import annotations

import ctypes
import functools
import math
import sys
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy import special as _special

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


class Tensor:
    """Dense real tensor with an optional gradient of identical shape.

    An op's output that needs a gradient holds the graph `Node` of that op
    in ``_node``; a leaf that requires a gradient is its own gradient sink
    and has no node."""

    __slots__ = ("data", "grad", "requires_grad", "_node")

    def __init__(self, data, requires_grad: bool = False, dtype=np.float32):
        dtype = np.dtype(dtype)
        if dtype not in (np.float32, np.float64):
            raise ValueError(f"a tensor is float32 or float64, got {dtype}")
        self.data = np.asarray(data, dtype=dtype)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._node: Node | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def _parents(self) -> tuple:
        """The gradient sinks this tensor's node passes its gradient to:
        nodes, and leaves that require a gradient; () for a leaf."""
        return () if self._node is None else self._node._parents

    def item(self) -> float:
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        return _new(self.data)

    def _acc(self, g: np.ndarray) -> None:
        """Add g, cast to this sink's dtype, into its gradient."""
        if g.dtype != self.dtype:
            g = g.astype(self.dtype)
        if self.grad is None:
            if not (g.flags.owndata and g.flags.writeable):
                g = g.copy()
            self.grad = g
        else:
            self.grad = self.grad + g

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into every leaf's ``grad``, freeing
        each node's backward function and parents once it has run (see the
        module docstring).  Reaching a node of a consumed graph raises
        ``RuntimeError`` before any gradient is accumulated."""
        if self.data.size != 1:
            raise ValueError("backward() is defined for scalar outputs only")
        root = self._node
        if root is None:
            self._acc(np.ones_like(self.data))
            return
        order: list[Node] = []
        seen: set[int] = set()
        stack: list[tuple[Node, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            if node._backward is _consumed:
                _consumed(None)  # raises
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if isinstance(p, Node) and id(p) not in seen:
                    stack.append((p, False))
        root._acc(np.ones_like(self.data))
        for node in reversed(order):
            node._backward(node.grad)
            node.grad = None
            node._backward = _consumed
            node._parents = ()

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

    def __neg__(self):
        return mul(self, -1.0)

    def __pow__(self, k):
        return power(self, k)

    def sum(self, axis=None):
        return tsum(self, axis=axis)

    def mean(self):
        return tmean(self)

    def reshape(self, shape):
        return reshape(self, shape)


class Node:
    """One op's vertex of the graph, holding no forward data: the gradient
    that reaches it, the backward function that passes it on, the sinks it
    passes it to (``_parents``: nodes, and leaf tensors) and the dtype its
    backward runs in, the promoted dtype of those sinks."""

    __slots__ = ("grad", "_backward", "_parents", "dtype")

    def __init__(self, backward: Callable[[np.ndarray], None], parents: tuple):
        self.grad: np.ndarray | None = None
        self._backward = backward
        self._parents = parents
        self.dtype = _grad_dtype(*parents)

    _acc = Tensor._acc


def _new(data: np.ndarray) -> Tensor:
    t = object.__new__(Tensor)
    t.data = data
    t.grad = None
    t.requires_grad = False
    t._node = None
    return t


def _consumed(g) -> None:
    """The backward function of a node whose backward has already run."""
    raise RuntimeError("backward already ran through this graph; build it again")


def _lift(x, like=None) -> Tensor:
    """x as a tensor; one that is not takes the dtype of the tensor `like`
    it meets (module docstring), float32 when it meets none."""
    if isinstance(x, Tensor):
        return x
    return _new(np.asarray(x, dtype=like.data.dtype)) if isinstance(like, Tensor) else Tensor(x)


def _lift_all(*xs) -> tuple[Tensor, ...]:
    """Each of xs as a tensor, taking the dtype of the first that is (`_lift`)."""
    like = next((x for x in xs if isinstance(x, Tensor)), None)
    return tuple(_lift(x, like) for x in xs)


def _sink(t: Tensor) -> Node | Tensor | None:
    """Where a consumer of t accumulates t's gradient: t's node, t itself
    for a leaf that requires a gradient, None when t needs none."""
    if t._node is not None:
        return t._node
    return t if t.requires_grad else None


def _grad_dtype(*sinks) -> np.dtype | None:
    """The dtype of a node over `sinks`: the promoted dtype of those that
    are live (a leaf's data dtype, a node's own), None when none is."""
    dtypes = {s.dtype for s in sinks if s is not None}
    if len(dtypes) > 1:
        return np.result_type(*dtypes)
    return dtypes.pop() if dtypes else None


def _keep(a: np.ndarray | None, dtype: np.dtype | None) -> np.ndarray | None:
    """An array a backward reads, held in its node's dtype; None, and any
    array of a node-less op (dtype None), as it is."""
    if a is None or dtype is None or a.dtype == dtype:
        return a
    return a.astype(dtype, order="C")


def _graph(out: Tensor, sinks: Iterable, backward: Callable[[np.ndarray], None]) -> None:
    """Give `out` a node when any of its inputs' `sinks` is live.  The
    backward function captures sinks, not the input tensors behind them,
    and only the arrays it reads."""
    live = tuple(s for s in sinks if s is not None)
    if live:
        out.requires_grad = True
        out._node = Node(backward, live)


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
    a, b = _lift_all(a, b)
    out = _new(a.data + b.data)
    na, nb, sa, sb = _sink(a), _sink(b), a.data.shape, b.data.shape

    def bw(g):
        if na is not None:
            na._acc(_unbroadcast(g, sa))
        if nb is not None:
            nb._acc(_unbroadcast(g, sb))

    _graph(out, (na, nb), bw)
    return out


def sub(a, b) -> Tensor:
    a, b = _lift_all(a, b)
    out = _new(a.data - b.data)
    na, nb, sa, sb = _sink(a), _sink(b), a.data.shape, b.data.shape

    def bw(g):
        if na is not None:
            na._acc(_unbroadcast(g, sa))
        if nb is not None:
            nb._acc(_unbroadcast(-g, sb))

    _graph(out, (na, nb), bw)
    return out


def mul(a, b) -> Tensor:
    a, b = _lift_all(a, b)
    out = _new(a.data * b.data)
    na, nb, sa, sb = _sink(a), _sink(b), a.data.shape, b.data.shape
    dt = _grad_dtype(na, nb)
    ad = _keep(a.data, dt) if nb is not None else None
    bd = _keep(b.data, dt) if na is not None else None

    def bw(g):
        if na is not None:
            na._acc(_unbroadcast(g * bd, sa))
        if nb is not None:
            nb._acc(_unbroadcast(g * ad, sb))

    _graph(out, (na, nb), bw)
    return out


def div(a, b) -> Tensor:
    a, b = _lift_all(a, b)
    out = _new(a.data / b.data)
    na, nb, sa, sb = _sink(a), _sink(b), a.data.shape, b.data.shape
    dt = _grad_dtype(na, nb)
    ad = _keep(a.data, dt) if nb is not None else None
    bd = _keep(b.data, dt)

    def bw(g):
        if na is not None:
            na._acc(_unbroadcast(g / bd, sa))
        if nb is not None:
            nb._acc(_unbroadcast(-g * ad / (bd * bd), sb))

    _graph(out, (na, nb), bw)
    return out


def power(a, k: float) -> Tensor:
    a = _lift(a)
    k = float(k)
    out = _new(a.data**k)
    na = _sink(a)
    ad = _keep(a.data, _grad_dtype(na))

    def bw(g):
        na._acc(g * (k * ad ** (k - 1)))

    _graph(out, (na,), bw)
    return out


def matmul(a, b) -> Tensor:
    """a @ b for a weight b ([k x n]) and a of any rank >= 2: one GEMM over
    a's flattened rows, forward and backward."""
    a, b = _lift_all(a, b)
    if a.ndim < 2 or b.ndim != 2:
        raise ValueError("matmul takes a left operand of rank >= 2 and a 2-D right operand")
    a2 = a.data.reshape(-1, a.data.shape[-1])
    out = _new((a2 @ b.data).reshape(a.data.shape[:-1] + b.data.shape[1:]))
    na, nb, sa = _sink(a), _sink(b), a.data.shape
    dt = _grad_dtype(na, nb)
    a2 = _keep(a2, dt) if nb is not None else None
    bd = _keep(b.data, dt) if na is not None else None

    def bw(g):
        g2 = g.reshape(-1, g.shape[-1])
        if na is not None:
            na._acc((g2 @ bd.T).reshape(sa))
        if nb is not None:
            nb._acc(a2.T @ g2)

    _graph(out, (na, nb), bw)
    return out


def tsum(a, axis=None) -> Tensor:
    """The sum over `axis`, which is dropped, or over every element."""
    a = _lift(a)
    out = _new(np.sum(a.data, axis=axis))
    na, sa = _sink(a), a.data.shape

    def bw(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        na._acc(np.broadcast_to(g, sa))

    _graph(out, (na,), bw)
    return out


def tmean(a) -> Tensor:
    """The mean of every element."""
    a = _lift(a)
    out = _new(np.mean(a.data))
    na, sa, count = _sink(a), a.data.shape, a.data.size

    def bw(g):
        na._acc(np.broadcast_to(g, sa) / count)

    _graph(out, (na,), bw)
    return out


def reshape(a, shape) -> Tensor:
    a = _lift(a)
    out = _new(a.data.reshape(shape))
    na, sa = _sink(a), a.data.shape

    def bw(g):
        na._acc(g.reshape(sa))

    _graph(out, (na,), bw)
    return out


def transpose(a, axes) -> Tensor:
    a = _lift(a)
    axes = tuple(axes)
    out = _new(np.transpose(a.data, axes))
    inv = tuple(np.argsort(axes))
    na = _sink(a)

    def bw(g):
        na._acc(np.transpose(g, inv))

    _graph(out, (na,), bw)
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
    na, sa = _sink(a), a.data.shape
    dtype = _grad_dtype(na)

    def bw(g):
        buf = np.zeros(sa, dtype=dtype)
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
        na._acc(buf)

    _graph(out, (na,), bw)
    return out


def take_along_last(a, indices) -> Tensor:
    """out[...] = a[..., indices[...]]; one index per leading position."""
    a = _lift(a)
    idx = np.asarray(indices, dtype=np.int64)
    if idx.shape != a.data.shape[:-1]:
        raise ValueError("index shape must match the tensor shape minus the last axis")
    out = _new(np.take_along_axis(a.data, idx[..., None], axis=-1)[..., 0])
    na, sa = _sink(a), a.data.shape
    dtype = _grad_dtype(na)

    def bw(g):
        buf = np.zeros(sa, dtype=dtype)
        flat = buf.reshape(-1, sa[-1])
        flat[np.arange(flat.shape[0]), idx.reshape(-1)] += g.reshape(-1)
        na._acc(buf)

    _graph(out, (na,), bw)
    return out


def narrow(a, axis: int, start: int, length: int) -> Tensor:
    a = _lift(a)
    sl = [slice(None)] * a.ndim
    sl[axis] = slice(start, start + length)
    sl = tuple(sl)
    out = _new(a.data[sl])
    na, sa = _sink(a), a.data.shape
    dtype = _grad_dtype(na)

    def bw(g):
        buf = np.zeros(sa, dtype=dtype)
        buf[sl] = g
        na._acc(buf)

    _graph(out, (na,), bw)
    return out


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    ts = _lift_all(*tensors)
    out = _new(np.concatenate([t.data for t in ts], axis=axis))
    sinks = [_sink(t) for t in ts]
    sizes = [t.data.shape[axis] for t in ts]

    def bw(g):
        offset = 0
        for s, size in zip(sinks, sizes):
            if s is not None:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(offset, offset + size)
                s._acc(g[tuple(sl)])
            offset += size

    _graph(out, sinks, bw)
    return out


# -- fused transformer-layer nodes ------------------------------------------
# Each is one graph node with a hand-written backward.  Weight and bias
# gradients are single 2-D GEMMs or sums over the [rows x d] flattened
# activations, and are computed only for parameters that require them.


def _row_sum(a: np.ndarray) -> np.ndarray:
    """a.sum(axis=-1, keepdims=True), each row reduced on its own."""
    return np.einsum("...k->...", a)[..., None]


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a * b).sum(axis=-1, keepdims=True) without the product array."""
    return np.einsum("...k,...k->...", a, b)[..., None]


def _row_max(a: np.ndarray) -> np.ndarray:
    """a.max(axis=-1, keepdims=True), from a copy with the last axis first:
    the reduction then runs over whole contiguous slices, not row by row."""
    return np.ascontiguousarray(np.moveaxis(a, -1, 0)).max(axis=0)[..., None]


def layer_norm(x, gain, bias, eps: float) -> Tensor:
    """(x - mean) / sqrt(var + eps) * gain + bias over the last axis."""
    x, gain, bias = _lift_all(x, gain, bias)
    d = x.data.shape[-1]
    xc = x.data - _row_sum(x.data) / d
    rstd = (_row_dot(xc, xc) / d + eps) ** -0.5
    xhat = xc * rstd
    del xc
    out = _new(xhat * gain.data + bias.data)
    nx, ng, nb = _sink(x), _sink(gain), _sink(bias)
    dt = _grad_dtype(nx, ng, nb)
    gd = _keep(gain.data, dt) if nx is not None else None
    xhat = _keep(xhat, dt) if nx is not None or ng is not None else None
    rstd = _keep(rstd, dt)

    def bw(g):
        if ng is not None:
            ng._acc((g * xhat).reshape(-1, d).sum(axis=0))
        if nb is not None:
            nb._acc(g.reshape(-1, d).sum(axis=0))
        if nx is not None:
            gy = g * gd
            mean_gy = _row_sum(gy) / d
            mean_gyx = _row_dot(gy, xhat) / d
            nx._acc(rstd * (gy - mean_gy - xhat * mean_gyx))

    _graph(out, (nx, ng, nb), bw)
    return out


MASK_FILL = -1e9


@functools.lru_cache(maxsize=None)
def _causal_mask(n: int, dtype: np.dtype) -> np.ndarray:
    """Additive [n x n] mask: MASK_FILL above the diagonal, 0 elsewhere."""
    mask = np.triu(np.full((n, n), MASK_FILL, dtype=dtype), k=1)
    mask.flags.writeable = False
    return mask


# Probabilities below this are set to exactly 0 (see the module docstring).
P_FLUSH = 2.0**-60


def _attend(q, k, v, mask, scale):
    """softmax(q k^T * scale + mask) v and the probabilities."""
    # numpy's batched matmul multiplies a contiguous k^T (here and v^T in the
    # backward) faster than the strided view, by more than the copy costs
    p = q @ np.ascontiguousarray(k.swapaxes(-1, -2))
    p *= scale
    p += mask
    p -= _row_max(p)
    np.exp(p, out=p)
    p /= _row_sum(p)
    p *= p >= P_FLUSH
    return p @ v, p


def _attend_backward(gh, q, k, v, p, scale):
    """(dq, dk, dv) of `_attend`; the softmax gradient is formed from the
    saved probabilities."""
    dv = p.swapaxes(-1, -2) @ gh
    ds = gh @ np.ascontiguousarray(v.swapaxes(-1, -2))
    ds -= _row_dot(ds, p)
    ds *= p
    ds *= scale
    return ds @ k, ds.swapaxes(-1, -2) @ q, dv


def causal_attention(
    x, wq, wk, wv, bq, bk, bv, n_heads: int, rows: int, prefix: tuple[int, int] = (0, 0), query_at=None
) -> Tensor:
    """Multi-head causal self-attention before the output projection, over
    the flat hidden state x [m*l + rows*T x d]: `prefix` = (m, l) gives m
    copies of an l-position prefix, then come `rows` sequences of T token
    positions each.  m is 1 (one prefix that every row shares) or `rows`
    (one copy per row); m*l = 0 is a batch without a prefix.

    Prefix queries attend causally within their copy: they never see a
    token (prefix-tuning, Li & Liang 2021), so each copy runs one l x l
    attention of its own, for m = 1 and m = `rows` alike.  Token queries
    attend to their row's copy of the prefix keys and values, placed in
    front of the row's own, then causally to their own row.  Per head this
    is softmax(Q K^T / sqrt(dh) + mask) V, with heads concatenated back to
    [m*l + rows*T x d], exactly what each row would get with its prefix
    prepended.  Q, K and V come from one GEMM over all positions.

    With `query_at` (one token index per row) only the query at token
    query_at[r] of each row r runs, and the result is [rows x d]: each row
    takes that query from the same projection, K and V come from every
    position, and the prefix's own queries do not run."""
    x, *params = _lift_all(x, wq, wk, wv, bq, bk, bv)
    weights, biases = params[:3], params[3:]
    n_pos, d = x.data.shape
    m, l = prefix
    n_pre = m * l
    n = (n_pos - n_pre) // rows
    if n_pre and m not in (1, rows) or n_pre + rows * n != n_pos:
        raise ValueError(f"{n_pos} positions do not split into {m} x {l} prefix and {rows} rows")
    h, dh = n_heads, d // n_heads
    scale = dh**-0.5
    x2 = x.data
    w = np.concatenate([t.data for t in weights], axis=1)
    proj = x2 @ w + np.concatenate([t.data for t in biases])  # [positions x 3d]
    q, k, v = proj[n_pre:].reshape(rows, n, 3, h, dh).transpose(2, 0, 3, 1, 4)  # each [rows x h x T x dh]
    mask = _causal_mask(l + n, proj.dtype)[l:]
    if query_at is not None:
        # each row's one query, and its row of the mask
        query_at = np.asarray(query_at, dtype=np.int64)
        q = q[np.arange(rows), :, query_at][:, :, None]  # [rows x h x 1 x dh]
        mask = mask[query_at][:, None, None, :]
    own = None  # q, k, v and probabilities of the prefix copies' own attention
    if n_pre:
        qp, kp, vp = proj[:n_pre].reshape(m, l, 3, h, dh).transpose(2, 0, 3, 1, 4)  # each [m x h x l x dh]
        k = np.concatenate([np.broadcast_to(kp, (rows, h, l, dh)), k], axis=2)
        v = np.concatenate([np.broadcast_to(vp, (rows, h, l, dh)), v], axis=2)
        if query_at is None:
            ctx_pre, pp = _attend(qp, kp, vp, _causal_mask(l, proj.dtype), scale)
            own = (qp.copy(), kp.copy(), vp.copy(), pp)
            q = q.copy()
        # k and v are new arrays here; with compact copies of the views,
        # nothing pins the [positions x 3d] projection, which goes before the
        # token queries attend
        del qp, kp, vp, proj
    ctx, p = _attend(q, k, v, mask, scale)
    if query_at is not None:
        out = ctx.reshape(rows, d)
    else:
        out = np.empty((n_pos, d), dtype=ctx.dtype)
        out[n_pre:].reshape(rows, n, h, dh)[...] = ctx.transpose(0, 2, 1, 3)
        if n_pre:
            out[:n_pre].reshape(m, l, h, dh)[...] = ctx_pre.transpose(0, 2, 1, 3)
    del ctx
    out = _new(out)
    nx, nw, nb = _sink(x), [_sink(t) for t in weights], [_sink(t) for t in biases]
    dtype = _grad_dtype(nx, *nw, *nb)
    # the backward reads the input rows for weight gradients only, and the
    # weights for x's gradient only
    x2 = _keep(x2, dtype) if any(t is not None for t in nw) else None
    w = _keep(w, dtype) if nx is not None else None
    # one at a time, so that a cast array's original goes before the next cast
    q = _keep(q, dtype)
    k = _keep(k, dtype)
    v = _keep(v, dtype)
    p = _keep(p, dtype)
    if own is not None:
        own = tuple(_keep(a, dtype) for a in own)

    def bw(g):
        dproj = np.empty((n_pos, 3 * d), dtype=dtype)
        if query_at is not None:
            gh = g.reshape(rows, h, 1, dh)
        else:
            gh = g[n_pre:].reshape(rows, n, h, dh).transpose(0, 2, 1, 3)
        dq, dk, dv = _attend_backward(gh, q, k, v, p, scale)
        tok = dproj[n_pre:].reshape(rows, n, 3, h, dh)
        if query_at is not None:
            # only the queried positions' Q columns get a gradient
            dproj[:, :d] = 0.0
            tok[np.arange(rows), query_at, 0] = dq[:, :, 0]
        else:
            tok[:, :, 0] = dq.transpose(0, 2, 1, 3)
        tok[:, :, 1] = dk[:, :, l:].transpose(0, 2, 1, 3)
        tok[:, :, 2] = dv[:, :, l:].transpose(0, 2, 1, 3)
        if n_pre:
            dkp, dvp = dk[:, :, :l], dv[:, :, :l]
            if m != rows:
                # every row's reads of the shared keys and values add up
                dkp, dvp = dkp.sum(axis=0, keepdims=True), dvp.sum(axis=0, keepdims=True)
            pre = dproj[:n_pre].reshape(m, l, 3, h, dh)
            if own is not None:
                gh_pre = g[:n_pre].reshape(m, l, h, dh).transpose(0, 2, 1, 3)
                dqp, dk_own, dv_own = _attend_backward(gh_pre, *own, scale)
                dkp += dk_own
                dvp += dv_own
                pre[:, :, 0] = dqp.transpose(0, 2, 1, 3)
            pre[:, :, 1] = dkp.transpose(0, 2, 1, 3)
            pre[:, :, 2] = dvp.transpose(0, 2, 1, 3)
        if nx is not None:
            nx._acc(dproj @ w.T)
        if any(t is not None for t in nw):
            dw = x2.T @ dproj
            for i, t in enumerate(nw):
                if t is not None:
                    t._acc(dw[:, i * d : (i + 1) * d])
        if any(t is not None for t in nb):
            db = dproj.sum(axis=0)
            for i, t in enumerate(nb):
                if t is not None:
                    t._acc(db[i * d : (i + 1) * d])

    _graph(out, (nx, *nw, *nb), bw)
    return out


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)

# float32 Gaussian CDF: Phi(x) = 0.5 + 0.5 * tanh(x * Q(x^2)), x clipped to
# +-6.  Q's coefficients (constant term first) are a minimax fit, by
# Lawson's algorithm, of atanh(erf(x / sqrt 2)) / x on [0, 5.5], weighted so
# that the residual is an error in Phi; the fit's own error is 3e-8.
# Evaluated in float32 the kernel is within 1e-7 of Phi at every float32 x
# with 1e-3 <= |x| <= 6.5, and within 3e-8 on 2e7 random ones below 1e-3.
# From |x| = 5.72 on, |x * Q(x^2)| is large enough that float32 tanh is
# exactly +-1, so the tails are exactly 0 and 1 and GELU(x) -> 0 as
# x -> -inf.
_CDF32_CLIP = 6.0
_CDF32_COEFFS = (
    0.7978849414607425,
    0.036333084572136534,
    -3.259497338245753e-05,
    -5.530619471648652e-05,
    3.964744618461759e-06,
    -1.3226335685694177e-07,
    1.7561712576171517e-09,
)


def gaussian_cdf(x: np.ndarray) -> np.ndarray:
    """Phi(x) elementwise, in x's dtype.  A float32 array takes the
    polynomial-tanh kernel above, 18 vectorised passes; a float64
    array takes scipy's erf, exact to double rounding."""
    if x.dtype != np.float32:
        y = x * _INV_SQRT2
        _special.erf(y, out=y)
        y += 1.0
        y *= 0.5
        return y
    xc = np.clip(x, -_CDF32_CLIP, _CDF32_CLIP)
    u = xc * xc
    y = u * _CDF32_COEFFS[-1]
    for c in _CDF32_COEFFS[-2:0:-1]:
        y += c
        y *= u
    y += _CDF32_COEFFS[0]
    y *= xc
    np.tanh(y, out=y)
    y *= 0.5
    y += 0.5
    return y


def gelu_mlp(x, w1, b1, w2, b2) -> Tensor:
    """GELU(x @ w1 + b1) @ w2 + b2 over the last axis, with the GELU
    x * Phi(x) (Hendrycks & Gimpel 2016; Phi from `gaussian_cdf`).

    The backward keeps the GELU's slope only when x, w1 or b1 needs a
    gradient, and the GELU output only when w2 does."""
    x, w1, b1, w2, b2 = _lift_all(x, w1, b1, w2, b2)
    sinks = nx, nw1, nb1, nw2, nb2 = tuple(_sink(t) for t in (x, w1, b1, w2, b2))
    dt = _grad_dtype(*sinks)
    sx = x.data.shape
    x2 = x.data.reshape(-1, sx[-1])
    pre = x2 @ w1.data + b1.data
    cdf = gaussian_cdf(pre)
    slope = w2d = None
    if nx is not None or nw1 is not None or nb1 is not None:
        # GELU'(pre) = Phi(pre) + pre * phi(pre), formed in one buffer of
        # the node's dtype
        slope = np.empty(pre.shape, dtype=dt)
        np.multiply(pre, pre, out=slope)
        slope *= -0.5
        np.exp(slope, out=slope)
        slope *= _INV_SQRT2PI
        slope *= pre
        slope += cdf
        w2d = _keep(w2.data, dt)
    h = cdf  # the GELU output, formed in place of Phi(pre)
    h *= pre
    del pre, cdf
    out = _new((h @ w2.data + b2.data).reshape(sx[:-1] + w2.data.shape[1:]))
    w1d = _keep(w1.data, dt) if nx is not None else None
    x2 = _keep(x2, dt) if nw1 is not None else None
    h = _keep(h, dt) if nw2 is not None else None

    def bw(g):
        g2 = g.reshape(-1, g.shape[-1])
        if nw2 is not None:
            nw2._acc(h.T @ g2)
        if nb2 is not None:
            nb2._acc(g2.sum(axis=0))
        if slope is None:
            return
        dpre = g2 @ w2d.T
        dpre *= slope
        if nw1 is not None:
            nw1._acc(x2.T @ dpre)
        if nb1 is not None:
            nb1._acc(dpre.sum(axis=0))
        if nx is not None:
            nx._acc((dpre @ w1d.T).reshape(sx))

    _graph(out, sinks, bw)
    return out


def _np_log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    m = x.max(axis=axis, keepdims=True)
    s = x - m
    return s - np.log(np.sum(np.exp(s), axis=axis, keepdims=True))


def log_softmax(a, axis: int = -1) -> Tensor:
    a = _lift(a)
    y = _np_log_softmax(a.data, axis=axis)
    out = _new(y)
    na = _sink(a)
    y = _keep(y, _grad_dtype(na))

    def bw(g):
        na._acc(g - np.exp(y) * g.sum(axis=axis, keepdims=True))

    _graph(out, (na,), bw)
    return out


def logsumexp(a, axis: int = -1) -> Tensor:
    """log(sum(exp(a))) over `axis`, which is kept with length 1."""
    a = _lift(a)
    m = a.data.max(axis=axis, keepdims=True)
    lse = m + np.log(np.sum(np.exp(a.data - m), axis=axis, keepdims=True))
    out = _new(lse)
    na = _sink(a)
    dt = _grad_dtype(na)
    ad, lse = _keep(a.data, dt), _keep(lse, dt)

    def bw(g):
        na._acc(g * np.exp(ad - lse))

    _graph(out, (na,), bw)
    return out


def _check_finite_vector(x: np.ndarray, name: str) -> None:
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} contains non-finite values")


def kl_divergence(reference_logits: np.ndarray, adjustable_logits: Tensor) -> Tensor:
    """KL(softmax(reference) || softmax(adjustable)) in nats, for two logit
    vectors, or summed over the rows of two [n x C] logit arrays.

    The reference is a constant array; gradient flows into the adjustable
    logits, a tensor, only.
    """
    adj = adjustable_logits
    # the reference follows the adjustable side's dtype so that identical
    # inputs produce an exact zero
    ref = np.asarray(reference_logits, dtype=adj.data.dtype)
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
