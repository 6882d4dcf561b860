"""Reverse-mode automatic differentiation over dense float64 arrays.

The engine is tape-based: while a :class:`Tape` is active, every
operation on :class:`Tensor` objects appends a node and links its
output to it.  A node holds its parent nodes and a closure that maps
the output gradient to input gradients; the closure keeps only the
arrays those gradients read, so the forward pass frees every other
intermediate array once it drops it.
``backward`` replays the tape once, in reverse execution order (which
is a valid topological order by construction), and then marks the tape
consumed.

All arithmetic is float64.  Operations validate shapes eagerly and
raise :class:`~avrobust.errors.DimensionError` before touching data, so
a failed call never leaves a partial node on the tape.

Each thread has its own tape stack, so op threads can record and
replay tapes at once.  :class:`BatchSplit` cuts a batch into contiguous
chunks of at most ``_CHUNK`` rows and deals them out to one op thread
per usable CPU; the model entry points run each chunk's whole forward
pass and then its backward pass on its own tape before the thread takes
its next chunk (numpy releases the GIL inside its kernels), so a step
holds the arrays of one chunk per thread, not of the whole batch.  Each
chunk's backward pass returns its own gradients, and the calling thread
adds them to a running sum in chunk order as the chunks finish.  Every
product runs per clip, and dropout takes the chunk's rows of the whole
batch's mask, so a chunk's outputs are exactly its rows of an unsplit
call.  The chunk boundaries depend only on the batch size and
``_CHUNK``, so results are byte-identical at any op-thread count, in
this process and in the forked workers of ``pipeline._map_on_workers``
(which run with one op thread); a gradient's bytes change with
``_CHUNK``.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigurationError, DimensionError, StateError, ValidationError

__all__ = [
    "Tensor", "Tape", "backward", "BatchSplit",
    "add", "sub", "mul", "scale",
    "matmul", "reshape", "transpose", "concat", "gather_rows",
    "reduce_sum", "reduce_mean",
    "relu", "sigmoid", "softmax",
    "conv2d", "pool2d", "add_relu_pool", "attention", "dropout",
    "bce_on_probs", "bce_grad",
]


class Tensor:
    """A dense float64 array plus gradient metadata.

    Constructing a tensor from user data rejects NaN/Inf immediately;
    results of internal operations skip that check for speed (they are
    finite whenever the inputs are, except where an op documents its
    own guards).
    """

    __slots__ = ("data", "requires_grad", "node")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise ValidationError("tensor data contains NaN or Inf")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.node = None        # the tape node that made this tensor

    @classmethod
    def _wrap(cls, arr, requires_grad):
        t = cls.__new__(cls)
        t.data = arr
        t.requires_grad = requires_grad
        t.node = None
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
    # parents: per input, the node that made it, else the input itself; None if no gradient
    __slots__ = ("parents", "vjp", "name")

    def __init__(self, parents, vjp, name):
        self.parents = parents
        self.vjp = vjp
        self.name = name


class _ThreadState(threading.local):
    def __init__(self):
        self.tapes = []         # this thread's active tapes, innermost last
        self.chunk = None       # the first row of the batch chunk this thread runs


_local = _ThreadState()


class Tape:
    """Ordered record of executed operations for one forward pass.

    Use as a context manager around the forward computation; call
    :func:`backward` with ``tape=`` exactly once afterwards.  ``nodes``
    holds every node in execution order; the nodes hold no tensors, so
    the arrays the tape keeps alive are those its vjp closures read.
    A second backward on the same tape raises
    :class:`~avrobust.errors.StateError`.  Each thread has its own stack
    of active tapes.
    """

    def __init__(self):
        self.nodes: list[_Node] = []
        self.consumed = False

    def __enter__(self):
        _local.tapes.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _local.tapes.pop()
        assert popped is self
        return False


def _active_tape():
    tapes = _local.tapes
    return tapes[-1] if tapes else None


def _record(output, inputs, vjp, name):
    tape = _active_tape()
    if tape is not None and output.requires_grad:
        parents = tuple((t.node or t) if t.requires_grad else None for t in inputs)
        output.node = _Node(parents, vjp, name)
        tape.nodes.append(output.node)
    return output


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def backward(output, params=None, *, tape, grad=None):
    """Accumulate gradients of ``output`` over ``tape``.

    ``output`` is a scalar loss, or any tensor when ``grad`` gives its
    gradient (an array of its shape) to start from.  Returns a dict
    mapping each requires_grad tensor that the tape reached but no node
    made (a parameter, an input) to its gradient array.  When ``params``
    is given, every listed tensor is guaranteed a key, with an all-zero
    gradient if the output does not depend on it.
    """
    if tape.consumed:
        raise StateError("tape already consumed by a previous backward pass")
    if grad is None:
        if output.size != 1:
            raise DimensionError(f"backward expects a scalar loss, got shape {output.shape}")
        grad = np.ones_like(output.data)
    elif np.shape(grad) != output.shape:
        raise DimensionError(
            f"seed gradient shape {np.shape(grad)} does not match output shape {output.shape}")
    tape.consumed = True

    # keyed by node, or by the tensor itself where no node made it
    grads = {output.node or output: np.asarray(grad, dtype=np.float64)}
    for node in reversed(tape.nodes):
        g_out = grads.pop(node, None)
        if g_out is None:
            continue
        for parent, g_in in zip(node.parents, node.vjp(g_out)):
            if g_in is None or parent is None:
                continue
            if parent in grads:
                grads[parent] = grads[parent] + g_in
            else:
                grads[parent] = g_in

    result = {t: g for t, g in grads.items() if isinstance(t, Tensor) and t.requires_grad}
    for p in params or ():
        if p not in result:
            result[p] = np.zeros_like(p.data)
    return result


# ---------------------------------------------------------------------------
# batch chunks on op threads

_OP_THREADS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
_CHUNK = 8                  # most rows in one chunk; see ROADMAP item 7 for the measurement
_executor = None            # ThreadPoolExecutor of _OP_THREADS - 1 threads, made on first split


def _drop_executor():
    # a forked child inherits the executor but none of its threads
    global _executor
    _executor = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_executor)


class BatchSplit:
    """A batch of ``n`` rows in contiguous chunks of at most ``_CHUNK`` rows.

    The chunk count is the smallest even number that keeps chunks that
    small (or ``n``, if fewer), so two op threads get equal shares.  It
    does not depend on the op-thread count: the chunk boundaries, and so
    the order in which a caller adds the chunks' gradients, are the same
    in every process.  Above two op threads the chunks need not divide
    evenly among the threads: a 32-row step (the default ``train`` and
    ``attack`` batch) is four chunks, so at three op threads one thread
    runs two of them and at five or more some threads sit idle.
    Throughput above two CPUs has not been measured.
    ``run(fn, take)`` calls ``fn(i)`` for every chunk ``i``: op thread
    ``t`` of ``k`` runs chunks ``t, t+k, ...`` in order, thread 0 being
    the calling thread, and finishes each chunk before it takes the next,
    so a thread holds one chunk's arrays at a time.  The calling thread
    passes the results to ``take`` in chunk order and drops them: after
    each of its own chunks it takes every finished chunk that no
    unfinished one precedes, and the rest once every thread is done, so
    at one op thread no result waits.  Without ``take``, ``run`` returns
    the results in chunk order.  An exception in any chunk re-raises in
    the caller, and no thread starts a chunk after one failed.
    ``rows[i]`` indexes chunk ``i``'s rows.  A batch of one is one chunk:
    ``rows[0]`` takes the whole input and ``fn(0)`` runs as an unsplit
    call.

    The chunks share no state but the failure flag.  Dropout, the one op
    that mixes rows of the batch in a forward pass, takes the chunk's
    rows of the whole batch's mask, so every output is exactly its rows
    of an unsplit call as long as products run per clip (BLAS's result
    for a row of a 2-D product depends on how many rows the call holds).
    A gradient that reaches a tensor without the batch axis (a
    parameter) is the chunk's share of the batch sum.
    """

    def __init__(self, n):
        m = max(1, min(n, 2 * -(-n // (2 * _CHUNK))))
        if m == 1:
            self.rows = [slice(None)]
        else:
            bounds = [n * i // m for i in range(m + 1)]
            self.rows = [slice(bounds[i], bounds[i + 1]) for i in range(m)]
        self._failed = False

    def run(self, fn, take=None):
        global _executor
        results = []
        take = results.append if take is None else take
        m = len(self.rows)
        k = min(_OP_THREADS, m)
        if k > 1 and _executor is None:
            _executor = ThreadPoolExecutor(_OP_THREADS - 1, thread_name_prefix="avrobust-op")
        done = [None] * m           # a chunk's (ok, result) until the caller takes it
        futures = [_executor.submit(self._run_chunks, [fn], done, t, k) for t in range(1, k)]
        taken = 0
        try:
            for i in range(0, m, k):
                self._run_chunk(fn, done, i)
                while taken < m and done[taken] is not None and done[taken][0]:
                    take(done[taken][1])
                    done[taken] = None
                    taken += 1
        except BaseException:
            self._failed = True
            raise
        finally:
            wait(futures)
        for outcome in done[taken:]:
            if outcome is not None and not outcome[0]:
                raise outcome[1]
        for i in range(taken, m):
            take(done[i][1])
            done[i] = None
        return results

    def _run_chunks(self, box, done, t, k):
        # The op thread lets go of ``fn``, and so of the arrays it captures,
        # before its future completes, so the caller frees them, in program
        # order, once it drops its own references.
        fn = box.pop()
        try:
            for i in range(t, len(self.rows), k):
                self._run_chunk(fn, done, i)
        finally:
            del fn

    def _run_chunk(self, fn, done, i):
        if self._failed:
            return
        _local.chunk = self.rows[i].start
        try:
            done[i] = True, fn(i)
        except BaseException as exc:         # noqa: BLE001 - re-raised by run()
            self._failed = True
            done[i] = False, exc
        finally:
            _local.chunk = None


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
    a_shape, b_shape = a.shape, b.shape
    need_a, need_b = a.requires_grad, b.requires_grad
    # each operand is kept only for the other operand's gradient
    a_data, b_data = a.data if need_b else None, b.data if need_a else None

    def vjp(g):
        return (_unbroadcast(g * b_data, a_shape) if need_a else None,
                _unbroadcast(g * a_data, b_shape) if need_b else None)

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
    need_a, need_b = a.requires_grad, b.requires_grad
    out = Tensor._wrap(np.matmul(a.data, b.data), need_a or need_b)
    a_shape, b_shape = a.shape, b.shape
    # each operand is kept only for the other operand's gradient
    a_data, b_data = a.data if need_b else None, b.data if need_a else None

    def vjp(g):
        return (_unbroadcast(np.matmul(g, np.swapaxes(b_data, -1, -2)), a_shape)
                if need_a else None,
                _unbroadcast(np.matmul(np.swapaxes(a_data, -1, -2), g), b_shape)
                if need_b else None)

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
    y = np.empty_like(a.data)
    np.maximum(a.data, 0.0, out=y)
    out = Tensor._wrap(y, a.requires_grad)

    def vjp(g):
        dx = np.empty_like(y)
        np.multiply(g, y > 0, out=dx)
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
    xp[:, :, pad_t:pad_t + t, pad_f:pad_f + f] = data
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))  # (B,C,To,Fo,kh,kw)
    np.copyto(cols.reshape(b, c, kh, kw, to, fo), win.transpose(0, 1, 4, 5, 2, 3))
    out = Tensor._wrap(cols, x.requires_grad)
    need_x = x.requires_grad

    def vjp(g):
        if not need_x:
            return (None,)
        g6 = g.reshape(b, c, kh, kw, to, fo)
        dxp = np.zeros((b, c, t + 2 * pad_t, f + 2 * pad_f), dtype=np.float64)
        for i in range(kh):
            for j in range(kw):
                dxp[:, :, i:i + to, j:j + fo] += g6[:, :, i, j]
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
    _max_pool(data, out_data, wt, wf)
    out = Tensor._wrap(out_data, x.requires_grad)

    def vjp(g):
        dx = np.zeros((b, c, t, f), dtype=np.float64)
        _route_to_first_max(data, out_data, g, dx, wt, wf)
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
    It keeps one full-size activation (unpooled, only its ``z > 0`` mask)
    and makes one full-size gradient, where the three ops keep three of
    each; its outputs and gradients are byte-identical to theirs.
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
    b_shape = b.shape
    z = np.empty(x.shape)
    np.add(x.data, b.data, out=z)
    np.maximum(z, 0.0, out=z)
    y = z
    if pooled:
        y = np.empty((n, c, to, fo))
        _max_pool(z, y, wt, wf)
    out = Tensor._wrap(y, x.requires_grad or b.requires_grad)
    need_x, need_b = x.requires_grad, b.requires_grad
    saved = (z, y) if pooled else z > 0     # unpooled, only the bool mask

    def vjp(g):
        if pooled:
            z_in, y_out = saved
            dz = np.zeros(z_in.shape)
            _route_to_first_max(z_in, y_out, g * (y_out > 0), dz, wt, wf)
        else:
            dz = np.empty(saved.shape)
            np.multiply(g, saved, out=dz)
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
    """Inverted dropout: scales kept activations by 1/(1-rate) in training.

    In a batch chunk the mask is the chunk's rows of the whole batch's
    mask: the generator skips one draw per entry of the rows before them.
    """
    rate = float(rate)
    if not 0.0 <= rate < 1.0:
        raise ConfigurationError(f"dropout rate must be in [0, 1), got {rate}")
    x = _as_tensor(x)
    if not training or rate == 0.0:
        return x
    rng = np.random.default_rng(seed)
    if _local.chunk:
        rng.bit_generator.advance(_local.chunk * (x.size // x.shape[0]))
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
    losses = -(t_data * np.log(p) + (1.0 - t_data) * np.log1p(-p))
    out = Tensor._wrap(np.asarray(losses.mean()), probs.requires_grad)
    data, n = probs.data, p.size
    return _record(out, (probs,), lambda g: (g * bce_grad(data, t_data, n, floor),),
                   "bce_on_probs")


def bce_grad(probs, targets, count, floor=1e-7):
    """Gradient of :func:`bce_on_probs` w.r.t. ``probs``, when its mean runs
    over ``count`` elements: a batch chunk's rows of the whole batch's
    gradient, with ``count`` the whole batch's element count."""
    p = np.clip(probs, floor, 1.0 - floor)
    inside = (probs > floor) & (probs < 1.0 - floor)
    return inside * (p - targets) / (p * (1.0 - p)) / count
