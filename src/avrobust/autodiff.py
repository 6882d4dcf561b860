"""Reverse-mode automatic differentiation over dense float64 arrays.

The engine is tape-based: while a :class:`Tape` is active, every
operation on :class:`Tensor` objects appends a node holding references
to its inputs and a closure that maps the output gradient to input
gradients.  ``backward`` replays the tape once, in reverse execution
order (which is a valid topological order by construction), and then
marks the tape consumed.

All arithmetic is float64.  Operations validate shapes eagerly and
raise :class:`~avrobust.errors.DimensionError` before touching data, so
a failed call never leaves a partial node on the tape.

The conv stack's kernels (batched matmul, im2col/col2im, max-pooling,
relu, and ``add_relu_pool``, the one node of a conv block's bias, relu
and pooling; forward and backward) split the leading batch axis into one
contiguous slice per usable CPU and run the slices on op threads; numpy
releases the GIL inside them.  Each slice does exactly the per-clip
arithmetic of an unsplit call into an output allocated by the caller,
and reductions over the batch stay in the caller, so results are
byte-identical at any op-thread count.  The forked workers of
``pipeline._map_on_workers`` run with one op thread.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigurationError, DimensionError, StateError, ValidationError

__all__ = [
    "Tensor", "Tape", "backward",
    "add", "sub", "mul", "scale",
    "matmul", "reshape", "transpose", "concat", "gather_rows",
    "reduce_sum", "reduce_mean",
    "relu", "sigmoid", "softmax",
    "conv2d", "pool2d", "add_relu_pool", "attention", "dropout",
    "bce_on_probs",
]


class Tensor:
    """A dense float64 array plus gradient metadata.

    Constructing a tensor from user data rejects NaN/Inf immediately;
    results of internal operations skip that check for speed (they are
    finite whenever the inputs are, except where an op documents its
    own guards).
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise ValidationError("tensor data contains NaN or Inf")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None

    @classmethod
    def _wrap(cls, arr, requires_grad):
        t = cls.__new__(cls)
        t.data = arr
        t.requires_grad = requires_grad
        t.grad = None
        return t

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self):
        if self.data.size != 1:
            raise DimensionError(f"item() requires a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(())[()])

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class _Node:
    __slots__ = ("output", "inputs", "vjp", "name")

    def __init__(self, output, inputs, vjp, name):
        self.output = output
        self.inputs = inputs
        self.vjp = vjp
        self.name = name


_TAPE_STACK: list["Tape"] = []


class Tape:
    """Ordered record of executed operations for one forward pass.

    Use as a context manager around the forward computation; call
    :func:`backward` with ``tape=`` exactly once afterwards.
    A second backward on the same tape raises
    :class:`~avrobust.errors.StateError`.
    """

    def __init__(self):
        self.nodes: list[_Node] = []
        self.consumed = False

    def __enter__(self):
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPE_STACK.pop()
        assert popped is self
        return False


def _active_tape():
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _record(output, inputs, vjp, name):
    tape = _active_tape()
    if tape is not None and output.requires_grad:
        tape.nodes.append(_Node(output, inputs, vjp, name))
    return output


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def backward(loss, params=None, *, tape):
    """Accumulate gradients of a scalar loss over ``tape``.

    Returns a dict mapping each requires_grad tensor touched by the
    tape to its gradient array (also mirrored on ``tensor.grad``).
    When ``params`` is given, every listed tensor is guaranteed a key,
    with an all-zero gradient if the loss does not depend on it.
    """
    if tape.consumed:
        raise StateError("tape already consumed by a previous backward pass")
    if loss.size != 1:
        raise DimensionError(f"backward expects a scalar loss, got shape {loss.shape}")
    tape.consumed = True

    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    by_tensor: dict[int, Tensor] = {id(loss): loss}
    for node in reversed(tape.nodes):
        g_out = grads.pop(id(node.output), None)
        if g_out is None:
            continue
        for inp, g_in in zip(node.inputs, node.vjp(g_out)):
            if g_in is None or not inp.requires_grad:
                continue
            key = id(inp)
            if key in grads:
                grads[key] = grads[key] + g_in
            else:
                grads[key] = g_in
                by_tensor[key] = inp

    result = {}
    for key, g in grads.items():
        t = by_tensor[key]
        if t.requires_grad:
            t.grad = g
            result[t] = g
    if params is not None:
        for p in params:
            if p not in result:
                p.grad = np.zeros_like(p.data)
                result[p] = p.grad
    return result


# ---------------------------------------------------------------------------
# op threads

_OP_THREADS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
# Kernels with less work run unsplit.  Timed on the benchmark's kernels
# (2-CPU AMD EPYC, one BLAS thread), a call split in two took 2-10x its
# unsplit time below 2**16 elements, about as long near 2**17, and
# 0.5-0.85x from 2**18 up.
_SPLIT_MIN = 1 << 17
_executor = None            # ThreadPoolExecutor of _OP_THREADS - 1 threads, made on first split


def _drop_executor():
    # a forked child inherits the executor but none of its threads
    global _executor
    _executor = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_executor)


def _run_slice(box, s):
    # The op thread lets go of ``fn``, and so of the arrays it captures,
    # before its future completes, so they are always freed in the calling
    # thread, in program order.  Freed from an op thread, at a moment that
    # varies from run to run, they would leave the heap in a varying shape,
    # and pool workers forked from it later would page-fault more or less
    # by that shape.
    box.pop()(s)


def _over_batch(fn, n, work):
    """Run ``fn(s)`` over contiguous slices ``s`` of a leading axis of length ``n``.

    One slice per op thread when ``work`` reaches ``_SPLIT_MIN``; it counts
    the elements of the kernel's largest array, or of both operands and the
    product for a matmul.  The first slice runs in the calling thread.  With
    one slice, ``fn(...)`` gets an Ellipsis, so it also takes 0-d arrays.
    """
    global _executor
    k = min(_OP_THREADS, n) if work >= _SPLIT_MIN else 1
    if k <= 1:
        fn(...)
        return
    if _executor is None:
        _executor = ThreadPoolExecutor(_OP_THREADS - 1, thread_name_prefix="avrobust-op")
    bounds = [n * i // k for i in range(k + 1)]
    futures = [_executor.submit(_run_slice, [fn], slice(bounds[i], bounds[i + 1]))
               for i in range(1, k)]
    try:
        fn(slice(0, bounds[1]))
    finally:
        wait(futures)
    for f in futures:
        f.result()


def _bmm(a, b):
    """``np.matmul(a, b)``; a product with a batch axis is split over op threads."""
    lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    if not lead:
        return np.matmul(a, b)
    out = np.empty(lead + (a.shape[-2], b.shape[-1]))
    n = lead[0]

    def part(s):
        # an operand without the batch axis (or broadcast along it) is shared
        np.matmul(a[s] if a.ndim == out.ndim and a.shape[0] == n else a,
                  b[s] if b.ndim == out.ndim and b.shape[0] == n else b, out=out[s])

    _over_batch(part, n, a.size + b.size + out.size)
    return out


def _unbroadcast(grad, shape):
    """Sum a gradient down to ``shape``, undoing numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# elementwise and structural primitives


def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor._wrap(a.data + b.data, a.requires_grad or b.requires_grad)
    a_shape, b_shape = a.shape, b.shape
    need_a, need_b = a.requires_grad, b.requires_grad

    def vjp(g):
        return (_unbroadcast(g, a_shape) if need_a else None,
                _unbroadcast(g, b_shape) if need_b else None)

    return _record(out, (a, b), vjp, "add")


def sub(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor._wrap(a.data - b.data, a.requires_grad or b.requires_grad)
    a_shape, b_shape = a.shape, b.shape
    need_a, need_b = a.requires_grad, b.requires_grad

    def vjp(g):
        return (_unbroadcast(g, a_shape) if need_a else None,
                _unbroadcast(-g, b_shape) if need_b else None)

    return _record(out, (a, b), vjp, "sub")


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor._wrap(a.data * b.data, a.requires_grad or b.requires_grad)
    a_data, b_data = a.data, b.data
    need_a, need_b = a.requires_grad, b.requires_grad

    def vjp(g):
        return (_unbroadcast(g * b_data, a_data.shape) if need_a else None,
                _unbroadcast(g * a_data, b_data.shape) if need_b else None)

    return _record(out, (a, b), vjp, "mul")


def scale(a, c):
    """Multiply by a python scalar (no gradient w.r.t. the scalar)."""
    a = _as_tensor(a)
    c = float(c)
    out = Tensor._wrap(a.data * c, a.requires_grad)
    return _record(out, (a,), lambda g: (g * c,), "scale")


def matmul(a, b):
    """Matrix product with numpy broadcasting over leading axes."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError("matmul operands must have at least 2 dimensions")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(
            f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")
    out = Tensor._wrap(_bmm(a.data, b.data), a.requires_grad or b.requires_grad)
    a_data, b_data = a.data, b.data
    need_a, need_b = a.requires_grad, b.requires_grad

    def vjp(g):
        ga = gb = None
        if need_a:
            ga = _unbroadcast(_bmm(g, np.swapaxes(b_data, -1, -2)), a_data.shape)
        if need_b:
            gb = _unbroadcast(_bmm(np.swapaxes(a_data, -1, -2), g), b_data.shape)
        return ga, gb

    return _record(out, (a, b), vjp, "matmul")


def reshape(a, shape):
    a = _as_tensor(a)
    old_shape = a.shape
    out = Tensor._wrap(a.data.reshape(shape), a.requires_grad)
    return _record(out, (a,), lambda g: (g.reshape(old_shape),), "reshape")


def transpose(a, axes):
    a = _as_tensor(a)
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    out = Tensor._wrap(np.ascontiguousarray(a.data.transpose(axes)), a.requires_grad)
    return _record(out, (a,), lambda g: (g.transpose(inverse),), "transpose")


def concat(tensors, axis):
    tensors = [_as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    out = Tensor._wrap(out_data, any(t.requires_grad for t in tensors))
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return _record(out, tuple(tensors), vjp, "concat")


def gather_rows(a, indices):
    """Select rows along axis -2; repeated indices accumulate gradient."""
    a = _as_tensor(a)
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise DimensionError("gather_rows indices must be 1-dimensional")
    n_rows = a.shape[-2]
    if idx.size and (idx.min() < 0 or idx.max() >= n_rows):
        raise DimensionError(f"gather_rows index out of range for {n_rows} rows")
    out = Tensor._wrap(np.ascontiguousarray(np.take(a.data, idx, axis=-2)), a.requires_grad)
    in_shape = a.shape
    axis = a.ndim - 2

    def vjp(g):
        dx = np.zeros(in_shape, dtype=np.float64)
        dx_t = np.moveaxis(dx, axis, 0)
        np.add.at(dx_t, idx, np.moveaxis(g, axis, 0))
        return (dx,)

    return _record(out, (a,), vjp, "gather_rows")


def reduce_sum(a, axis=None, keepdims=False):
    a = _as_tensor(a)
    out = Tensor._wrap(a.data.sum(axis=axis, keepdims=keepdims), a.requires_grad)
    in_shape = a.shape

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, in_shape).copy(),)

    return _record(out, (a,), vjp, "sum")


def reduce_mean(a, axis=None, keepdims=False):
    a = _as_tensor(a)
    out_data = a.data.mean(axis=axis, keepdims=keepdims)
    out = Tensor._wrap(out_data, a.requires_grad)
    in_shape = a.shape
    count = a.size if axis is None else a.shape[axis]

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g / count, in_shape).copy(),)

    return _record(out, (a,), vjp, "mean")


# ---------------------------------------------------------------------------
# nonlinearities


def relu(a):
    a = _as_tensor(a)
    x = a.data
    y = np.empty_like(x)
    n = x.shape[0] if x.ndim else 1
    _over_batch(lambda s: np.maximum(x[s], 0.0, out=y[s]), n, x.size)
    out = Tensor._wrap(y, a.requires_grad)

    def vjp(g):
        dx = np.empty_like(y)
        live = np.empty(y.shape, dtype=bool)

        def part(s):
            np.greater(y[s], 0, out=live[s])
            np.multiply(g[s], live[s], out=dx[s])

        _over_batch(part, n, y.size)
        return (dx,)

    return _record(out, (a,), vjp, "relu")


def sigmoid(a):
    a = _as_tensor(a)
    x = a.data
    # piecewise form avoids exp overflow for large |x|
    y = np.empty_like(x)
    pos = x >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    y[~pos] = ex / (1.0 + ex)
    out = Tensor._wrap(y, a.requires_grad)
    return _record(out, (a,), lambda g: (g * y * (1.0 - y),), "sigmoid")


def softmax(a):
    """Softmax over the last axis."""
    a = _as_tensor(a)
    if a.shape[-1] < 1:
        raise DimensionError("softmax requires a non-empty last axis")
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)
    out = Tensor._wrap(y, a.requires_grad)

    def vjp(g):
        return (y * (g - (g * y).sum(axis=-1, keepdims=True)),)

    return _record(out, (a,), vjp, "softmax")


# ---------------------------------------------------------------------------
# convolution / pooling


def _check_4d(x):
    if x.ndim != 4:
        raise DimensionError(f"expected (B,C,T,F) input, got shape {x.shape}")


def _im2col(x, kh, kw, pad_t, pad_f):
    """Extract all kh*kw patches as columns: (B,C,T,F) -> (B, C*kh*kw, To*Fo)."""
    b, c, t, f = x.shape
    to = t + 2 * pad_t - kh + 1
    fo = f + 2 * pad_f - kw + 1
    if to < 1 or fo < 1:
        raise DimensionError(
            f"kernel ({kh}x{kw}) larger than padded input ({t + 2 * pad_t}x{f + 2 * pad_f})")
    data = x.data
    xp = np.zeros((b, c, t + 2 * pad_t, f + 2 * pad_f))
    cols = np.empty((b, c * kh * kw, to * fo))
    cols6 = cols.reshape(b, c, kh, kw, to, fo)

    def part(s):
        xps = xp[s]
        xps[:, :, pad_t:pad_t + t, pad_f:pad_f + f] = data[s]
        win = sliding_window_view(xps, (kh, kw), axis=(2, 3))  # (B,C,To,Fo,kh,kw)
        np.copyto(cols6[s], win.transpose(0, 1, 4, 5, 2, 3))

    _over_batch(part, b, cols.size)
    out = Tensor._wrap(cols, x.requires_grad)
    need_x = x.requires_grad

    def vjp(g):
        if not need_x:
            return (None,)
        g6 = g.reshape(b, c, kh, kw, to, fo)
        dxp = np.zeros((b, c, t + 2 * pad_t, f + 2 * pad_f), dtype=np.float64)

        def part(s):
            dxps, g6s = dxp[s], g6[s]
            for i in range(kh):
                for j in range(kw):
                    dxps[:, :, i:i + to, j:j + fo] += g6s[:, :, i, j]

        _over_batch(part, b, g.size)
        if pad_t or pad_f:
            dxp = dxp[:, :, pad_t:pad_t + t, pad_f:pad_f + f]
        return (dxp,)

    return _record(out, (x,), vjp, "im2col"), to, fo


def conv2d(x, kernels, padding=(0, 0)):
    """2-D cross-correlation with zero padding.

    ``x`` is (B,C,T,F); ``kernels`` is (C',C,kh,kw).
    Output time/freq extents are T+2*pad_t-kh+1 and F+2*pad_f-kw+1.
    """
    x = _as_tensor(x)
    kernels = _as_tensor(kernels)
    _check_4d(x)
    if kernels.ndim != 4:
        raise DimensionError(f"kernels must be (C',C,kh,kw), got shape {kernels.shape}")
    c_out, c_in, kh, kw = kernels.shape
    if c_in != x.shape[1]:
        raise DimensionError(
            f"kernel input channels {c_in} do not match input channels {x.shape[1]}")
    pad_t, pad_f = int(padding[0]), int(padding[1])
    cols, to, fo = _im2col(x, kh, kw, pad_t, pad_f)
    w = reshape(kernels, (c_out, c_in * kh * kw))
    out = matmul(w, cols)                       # (B, C', To*Fo)
    return reshape(out, (x.shape[0], c_out, to, fo))


def _pool_extents(window, t, f):
    """Checked ``(wt, wf, to, fo)`` of non-overlapping pooling over a (T,F) grid."""
    wt, wf = int(window[0]), int(window[1])
    if wt < 1 or wf < 1:
        raise ConfigurationError(f"pool window extents must be >= 1, got {(wt, wf)}")
    if wt > t or wf > f:
        raise DimensionError(f"pool window {(wt, wf)} exceeds input extents {(t, f)}")
    return wt, wf, t // wt, f // wf


def _cell(arr, i, j, wt, wf, to, fo):
    """Entry ``(i, j)`` of every ``(wt, wf)`` window of a (...,T,F) array."""
    return arr[..., i:to * wt:wt, j:fo * wf:wf]


def _max_pool(x, y, wt, wf):
    """Write the maximum of each ``(wt, wf)`` window of ``x`` into ``y``."""
    to, fo = y.shape[-2:]
    np.copyto(y, _cell(x, 0, 0, wt, wf, to, fo))
    for i in range(wt):
        for j in range(wf):
            if i or j:
                np.maximum(y, _cell(x, i, j, wt, wf, to, fo), out=y)


def _route_to_first_max(x, y, g, dx, wt, wf):
    """Copy ``g`` into the zeroed ``dx`` at each window's first maximum of ``x``.

    ``y`` holds the window maxima.  Windows are scanned row-major, so ties
    break the same way every time; ``free`` marks the windows not yet routed.
    """
    to, fo = y.shape[-2:]
    hit = np.empty(y.shape, dtype=bool)
    free = np.ones(y.shape, dtype=bool)
    for i in range(wt):
        for j in range(wf):
            np.equal(_cell(x, i, j, wt, wf, to, fo), y, out=hit)
            hit &= free
            np.copyto(_cell(dx, i, j, wt, wf, to, fo), g, where=hit)
            free ^= hit


def pool2d(x, window):
    """Non-overlapping max-pooling of (B,C,T,F); trailing remainder rows/cols are dropped.

    The models pool through :func:`add_relu_pool`; this op is the
    reference its tests compare against.
    """
    x = _as_tensor(x)
    _check_4d(x)
    b, c, t, f = x.shape
    wt, wf, to, fo = _pool_extents(window, t, f)
    data = x.data
    out_data = np.empty((b, c, to, fo))
    _over_batch(lambda s: _max_pool(data[s], out_data[s], wt, wf), b, data.size)
    out = Tensor._wrap(out_data, x.requires_grad)

    def vjp(g):
        dx = np.zeros((b, c, t, f), dtype=np.float64)
        _over_batch(lambda s: _route_to_first_max(data[s], out_data[s], g[s], dx[s], wt, wf),
                    b, data.size)
        return (dx,)

    return _record(out, (x,), vjp, "pool_max")


def add_relu_pool(x, b, window=(1, 1)):
    """``pool2d(relu(add(x, b)), window)`` as one tape node: a conv block's tail.

    ``x`` is (B,C,T,F) and ``b`` broadcasts to it: a (C,1,1) bias, or a
    residual branch of x's shape.  A ``(1, 1)`` window skips the pooling.
    The forward writes ``x + b`` into one buffer, applies relu in place and
    max-pools that buffer; the backward routes the gradient to each
    window's first maximum, masked by ``z > 0`` (at a routed entry ``z``
    is the window's maximum, so the mask is taken on the pooled gradient).
    It keeps one full-size activation and makes one full-size gradient,
    where the three ops keep three of each; its outputs and gradients
    are byte-identical to theirs.
    """
    x, b = _as_tensor(x), _as_tensor(b)
    _check_4d(x)
    try:
        fits = np.broadcast_shapes(x.shape, b.shape) == x.shape
    except ValueError:
        fits = False
    if not fits:
        raise DimensionError(f"{b.shape} does not broadcast to input shape {x.shape}")
    n, c, t, f = x.shape
    wt, wf, to, fo = _pool_extents(window, t, f)
    pooled = (wt, wf) != (1, 1)
    x_data, b_data, b_shape = x.data, b.data, b.shape
    b_batched = b.ndim == 4 and b_shape[0] == n
    z = np.empty(x.shape)
    y = np.empty((n, c, to, fo)) if pooled else z

    def forward(s):
        zs = z[s]
        np.add(x_data[s], b_data[s] if b_batched else b_data, out=zs)
        np.maximum(zs, 0.0, out=zs)
        if pooled:
            _max_pool(zs, y[s], wt, wf)

    _over_batch(forward, n, z.size)
    out = Tensor._wrap(y, x.requires_grad or b.requires_grad)
    need_x, need_b = x.requires_grad, b.requires_grad

    def vjp(g):
        dz = np.zeros(z.shape) if pooled else np.empty(z.shape)

        def backward(s):
            if pooled:
                ys = y[s]
                _route_to_first_max(z[s], ys, g[s] * (ys > 0), dz[s], wt, wf)
            else:
                np.multiply(g[s], z[s] > 0, out=dz[s])

        _over_batch(backward, n, z.size)
        return (dz if need_x else None, _unbroadcast(dz, b_shape) if need_b else None)

    return _record(out, (x, b), vjp, "add_relu_pool")


# ---------------------------------------------------------------------------
# attention, dropout, losses


def attention(q, k, v, heads=1):
    """Multi-head scaled dot-product attention over (...,T,d) inputs.

    Heads are split from the feature axis, attended independently, and
    concatenated back.  Residual connections are the caller's job.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    if q.shape != k.shape or q.shape != v.shape:
        raise DimensionError(
            f"q/k/v shapes must match, got {q.shape}, {k.shape}, {v.shape}")
    if q.ndim < 2:
        raise DimensionError("attention expects at least (T,d) inputs")
    d = q.shape[-1]
    if d % heads != 0:
        raise ConfigurationError(f"width {d} not divisible by {heads} heads")
    dh = d // heads
    t = q.shape[-2]
    lead = q.shape[:-2]
    n_lead = len(lead)
    split_axes = tuple(range(n_lead)) + (n_lead + 1, n_lead, n_lead + 2)

    def split(x):
        x = reshape(x, lead + (t, heads, dh))
        return transpose(x, split_axes)         # (..., heads, T, dh)

    qs, ks, vs = split(q), split(k), split(v)
    kt_axes = tuple(range(n_lead + 1)) + (n_lead + 2, n_lead + 1)
    scores = scale(matmul(qs, transpose(ks, kt_axes)), 1.0 / math.sqrt(dh))
    weights = softmax(scores)
    mixed = matmul(weights, vs)                 # (..., heads, T, dh)
    mixed = transpose(mixed, split_axes)        # (..., T, heads, dh)
    return reshape(mixed, lead + (t, d))


def dropout(x, rate, seed, training):
    """Inverted dropout: scales kept activations by 1/(1-rate) in training."""
    rate = float(rate)
    if not 0.0 <= rate < 1.0:
        raise ConfigurationError(f"dropout rate must be in [0, 1), got {rate}")
    x = _as_tensor(x)
    if not training or rate == 0.0:
        return x
    rng = np.random.default_rng(seed)
    keep = 1.0 - rate
    mask = (rng.random(x.shape) < keep).astype(np.float64) / keep
    out = Tensor._wrap(x.data * mask, x.requires_grad)
    return _record(out, (x,), lambda g: (g * mask,), "dropout")


def bce_on_probs(probs, targets, floor=1e-7):
    """Mean binary cross-entropy on probabilities already in (0,1).

    Used for heads (attention pooling) whose output is a convex
    combination of sigmoids and therefore has no logit representation.
    Probabilities are clamped to [floor, 1-floor]; the gradient is zero
    where the clamp is active.
    """
    probs = _as_tensor(probs)
    t_data = targets.data if isinstance(targets, Tensor) else np.asarray(targets, dtype=np.float64)
    if t_data.shape != probs.shape:
        raise DimensionError(
            f"targets shape {t_data.shape} does not match probs shape {probs.shape}")
    if not np.all((t_data == 0.0) | (t_data == 1.0)):
        raise ValidationError("targets must be binary (0/1)")
    p = np.clip(probs.data, floor, 1.0 - floor)
    inside = (probs.data > floor) & (probs.data < 1.0 - floor)
    losses = -(t_data * np.log(p) + (1.0 - t_data) * np.log1p(-p))
    out = Tensor._wrap(np.asarray(losses.mean()), probs.requires_grad)
    n = p.size

    def vjp(g):
        return (g * inside * (p - t_data) / (p * (1.0 - p)) / n,)

    return _record(out, (probs,), vjp, "bce_on_probs")
