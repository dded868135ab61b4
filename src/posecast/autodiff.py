"""Minimal dense-tensor engine with reverse-mode automatic differentiation.

Tensors wrap float64 numpy arrays. Every differentiable operation records
through one rule, ``_record``: its result holds its inputs and a backward
closure when recording is on and some input is live (a parameter or a
graph node), and is a plain tensor otherwise. ``backward()`` on a scalar
root walks the recorded graph once in reverse topological order and
accumulates gradients into tensors created with ``requires_grad=True``;
``gradients(root, params)`` makes the same walk but returns the
parameters' gradients in arrays of its own, so threads may each walk a
graph over the same parameters. Constants never receive gradients, and
no closure computes a gradient for an input that cannot pass one on.

The walk releases the graph as it goes, so a graph is walked once; a
second ``backward()`` through it raises ``GraphReleasedError``. Inside
``with no_grad():`` operations record nothing at all; the block holds
for the thread that entered it, and every other thread keeps recording.
``map_chunks`` runs a function over chunks of items on threads, each chunk
as many items as fit in a fixed budget of graph rows, and hands each
chunk's result to a fold in chunk order as it finishes. Importing this
module sets numpy's bundled OpenBLAS to one thread for the whole process.

Elementwise ops broadcast as numpy does, and each gradient is summed back
over the leading and size-1 axes its operand was broadcast along; matmul
broadcasts the batch dimensions ahead of two matrix dimensions.
"""

from __future__ import annotations

import ctypes
import math
import os
import threading
from contextlib import contextmanager

import numpy as np

__all__ = [
    "Tensor",
    "DimensionError",
    "DegenerateMaskError",
    "GraphReleasedError",
    "no_grad",
    "gradients",
    "CHUNK_ROWS",
    "chunk_size",
    "map_chunks",
    "parameter",
    "constant",
    "matmul",
    "add",
    "sub",
    "mul",
    "tanh",
    "sqrt",
    "masked_softmax",
    "tensor_sum",
    "cumsum",
    "reshape",
    "transpose",
    "tail",
    "weight_layout",
    "hop_views",
    "graph_conv",
    "AdamState",
    "adam_step",
]


def _usable_cores():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _tune_allocator():
    """Have glibc's malloc keep freed blocks of up to 32 MiB for reuse,
    in one arena per chunk thread.

    Sets M_MMAP_THRESHOLD (-3) to 32 MiB, M_TRIM_THRESHOLD (-1) to
    256 MiB and M_ARENA_MAX (-8) to one more than the usable cores;
    returns whether all took. Does nothing without mallopt.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt.restype = ctypes.c_int
    except (OSError, AttributeError, TypeError):
        return False
    # By default every large temporary is a fresh mmap, zeroed and faulted
    # in page by page on each step, then unmapped on free. Each thread that
    # map_chunks starts takes over the arena a thread of an earlier call
    # left: in one arena shared by both threads, the heap's high-water mark
    # hangs on how their allocations interleave, so a call now and then
    # faults in a megabyte of fresh pages. The cap bounds the arenas made
    # when a new thread starts before an old one has handed its arena back.
    return all([mallopt(-3, 32 << 20), mallopt(-1, 256 << 20),
                mallopt(-8, 1 + _usable_cores())])


def _pin_openblas():
    """Set numpy's bundled OpenBLAS to one thread for the whole process;
    return its thread-count setter, or None where numpy bundles none.

    Chunk threads need the pin, as an idle OpenBLAS worker spins on a core
    and starves a Python thread beside it; outside the chunks more threads
    gain little.
    """
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    names = os.listdir(libs) if os.path.isdir(libs) else []
    for name in sorted(n for n in names if n.startswith("libscipy_openblas")):
        try:
            put = ctypes.CDLL(os.path.join(libs, name)).scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        put.argtypes, put.restype = (ctypes.c_int,), None
        put(1)
        return put
    return None


_allocator_tuned = _tune_allocator()
_set_blas_threads = _pin_openblas()
BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8      # Adam's moment decays and denominator floor


class DimensionError(ValueError):
    """Raised when operand shapes are incompatible."""


class DegenerateMaskError(ValueError):
    """Raised when a softmax slice has no allowed entry."""


class GraphReleasedError(RuntimeError):
    """Raised when backward() reaches a node an earlier backward() released."""


def _released(grad):
    raise GraphReleasedError(
        "backward() through a graph that an earlier backward() already released; "
        "build the graph again to take another gradient"
    )


class _ThreadState(threading.local):
    """Per thread: whether ops record (every thread starts recording), and,
    while ``gradients`` runs, the parameter -> gradient dict that
    ``_accumulate`` fills instead of the parameters' ``grad``."""

    recording = True
    grads = None


_state = _ThreadState()


@contextmanager
def no_grad():
    """Run operations in this thread without recording a graph.

    Results are plain tensors: no inputs, no backward closure. Blocks
    nest, and the previous state comes back on exit, also when the block
    raises. Other threads record as before.
    """
    previous, _state.recording = _state.recording, False
    try:
        yield
    finally:
        _state.recording = previous


def gradients(root, params):
    """The gradients of the scalar ``root`` with respect to ``params``: one
    new array per parameter, or None where no gradient reached it.

    Walks and releases the graph as ``root.backward()`` does, but writes
    nothing into any parameter's ``grad``; leaves outside ``params`` get
    no gradient either. The arrays are this call's own, so threads may
    each take gradients through graphs that share parameters.
    """
    sink = _state.grads = {}
    try:
        root.backward()
    finally:
        _state.grads = None
    return [sink.get(p) for p in params]


# Graph rows per call of map_chunks' fn. A window's augmented graph has
# max(T, K)*V rows, and a chunk's work and temporaries grow with its rows,
# not its window count. 1,280 rows are exactly 16 chain_8 windows, so
# chain_8 keeps the 16-window chunk (at 8, its per-chunk overhead cost it
# 7-14% of its training throughput), and h36m22 runs 4 windows: such a
# training chunk peaks at 5.65 MiB, and its widest stacked product,
# [880, 256] float64 (1.8 MB), fits a 2 MiB per-core L2 (a 2-core Xeon's),
# where an 8-window chunk's (3.6 MB) does not. At 512 rows h36m22 lost
# 9-20% of its training throughput.
CHUNK_ROWS = 1280


def chunk_size(rows):
    """Items per chunk for items of ``rows`` graph rows each: the largest
    power of two whose rows fit in CHUNK_ROWS, and at least one."""
    return 1 << max(0, (CHUNK_ROWS // rows).bit_length() - 1)


def map_chunks(fn, n, rows, fold=None):
    """``fn`` on each ``chunk_size(rows)``-long slice of ``range(n)``, for
    items of ``rows`` graph rows each, the calls spread over threads, one
    per usable core; returns None.

    Each call's result goes to ``fold``, if given, in slice order: as soon
    as its slice and every earlier one have finished, on the thread that
    finished the last of them, one fold at a time. No result is kept, so
    a caller that folds, say, gradients holds about one per thread, not
    one per slice. No slice after a raising one is folded.

    A slice's rows fit in CHUNK_ROWS unless one item alone exceeds it; on
    h36m22 at T = K = 10 that is 4 windows, so each call's widest product
    fits a 2 MiB per-core L2 and a training chunk's graph stays a few MiB.

    The threads start in this call and have ended when it returns or
    raises; a raising call raises once every call has ended, the lowest
    raising slice's exception. The plain loop runs instead with one
    slice, one usable core, or where the import could not pin OpenBLAS
    to one thread: an idle OpenBLAS worker spins on a core and starves a
    Python thread beside it. Each call of ``fn`` must write only what no
    other call reads or writes.
    """
    step = chunk_size(rows)
    slices = [slice(i, i + step) for i in range(0, n, step)]
    cores = _usable_cores() if len(slices) > 1 and _set_blas_threads is not None else 1
    if cores < 2:
        for s in slices:
            result = fn(s)
            if fold is not None:
                fold(result)
        return
    import concurrent.futures

    lock, done, next_fold = threading.Lock(), {}, 0

    def run(i):
        nonlocal next_fold
        result = fn(slices[i])
        if fold is not None:
            with lock:                  # fold the finished prefix, in order
                done[i] = result
                while next_fold in done:
                    fold(done.pop(next_fold))
                    next_fold += 1

    with concurrent.futures.ThreadPoolExecutor(cores, "posecast-chunk") as pool:
        futures = [pool.submit(run, i) for i in range(len(slices))]
    for f in futures:
        f.result()


class Tensor:
    """A node in the differentiation graph.

    ``values`` is always a float64 ndarray. ``grad`` stays None until a
    backward pass reaches this tensor (and forever, for constants).
    """

    __slots__ = ("values", "grad", "requires_grad", "_inputs", "_backward")

    def __init__(self, values, requires_grad=False, _inputs=(), _backward=None):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._inputs = _inputs
        self._backward = _backward

    @property
    def shape(self):
        return self.values.shape

    def __repr__(self):
        return f"Tensor(shape={self.values.shape}, requires_grad={self.requires_grad})"

    def item(self):
        return float(self.values.reshape(()))

    def backward(self):
        """Backpropagate from this tensor, which must be scalar, seeding it
        with ones through ``_accumulate`` as any gradient reaches a tensor.

        Each non-leaf node is released once its closure has run: its
        closure, inputs and gradient are dropped, so the graph's memory is
        returned during the walk. Leaves keep their gradients. Calling
        backward() again on a released graph raises GraphReleasedError.
        """
        if self.values.size != 1:
            raise DimensionError(
                f"backward() requires a scalar root, got shape {self.values.shape}"
            )
        order = _toposort(self)
        _accumulate(self, np.ones_like(self.values), True)
        while order:
            node = order.pop()
            if node._backward is None:
                continue
            node._backward(node.grad)
            node._backward, node._inputs, node.grad = _released, (), None


def parameter(values):
    """A learnable tensor over ``values``; a float64 array is kept, not copied."""
    return Tensor(values, requires_grad=True)


def constant(values):
    return Tensor(values, requires_grad=False)


def _toposort(root):
    order = []
    visited = set()
    stack = [(root, iter(root._inputs))]
    visited.add(id(root))
    while stack:
        node, it = stack[-1]
        advanced = False
        for child in it:
            if id(child) not in visited:
                visited.add(id(child))
                stack.append((child, iter(child._inputs)))
                advanced = True
                break
        if not advanced:
            stack.pop()
            order.append(node)
    return order


def _accumulate(tensor, grad, fresh):
    """Add ``grad`` into ``tensor.grad``, or, for a parameter while
    ``gradients`` runs in this thread, into its entry there.

    ``fresh`` says the calling closure allocated ``grad`` itself, so no
    other tensor can hold it and the first gradient may keep it. Anything
    else (the incoming gradient, or a view of it) is copied first.
    """
    sink = _state.grads if tensor.requires_grad else None
    held = tensor.grad if sink is None else sink.get(tensor)
    if held is not None:
        held += grad
    elif sink is None:
        tensor.grad = grad if fresh else grad.copy()
    else:
        sink[tensor] = grad if fresh else grad.copy()


def _unbroadcast(grad, shape):
    """Sum a broadcasted gradient back down to ``shape``."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _live(t):
    """Whether a gradient into ``t`` is read: a parameter or a graph node."""
    return t.requires_grad or t._backward is not None


def _record(out_values, inputs, backward):
    """The op's result: a graph node over ``inputs`` whose closure is
    ``backward``, or a plain tensor under ``no_grad`` or when no input is
    live. Every op records through here."""
    if _state.recording and any(_live(t) for t in inputs):
        return Tensor(out_values, _inputs=inputs, _backward=backward)
    return Tensor(out_values)


def _unary(a, out_values, grad_of, fresh=True):
    """Record a one-input op whose input gradient is ``grad_of(grad)``;
    ``fresh`` says that array is new, as ``_accumulate`` takes it."""
    return _record(out_values, (a,), lambda grad: _accumulate(a, grad_of(grad), fresh))


def _binary(a, b, out_values, grad_a, grad_b):
    """Record a two-input op with numpy broadcasting. Backward forms only a
    live operand's gradient and sums it back to that operand's shape;
    ``grad_a`` and ``grad_b`` may hand back ``grad`` itself, which is then
    copied, and any other array is kept."""

    def backward(grad):
        for t, grad_of in ((a, grad_a), (b, grad_b)):
            if _live(t):
                g = grad_of(grad)
                _accumulate(t, _unbroadcast(g, t.values.shape), g is not grad)

    return _record(out_values, (a, b), backward)


def matmul(a, b):
    """Matrix product with numpy-style leading-dim broadcasting."""
    if a.values.ndim < 2 or b.values.ndim < 2:
        raise DimensionError(
            f"matmul needs >=2-d operands, got {a.shape} and {b.shape}"
        )
    if a.values.shape[-1] != b.values.shape[-2]:
        raise DimensionError(
            f"matmul inner dims disagree: {a.shape} x {b.shape}"
        )
    return _binary(a, b, a.values @ b.values,
                   lambda grad: grad @ np.swapaxes(b.values, -1, -2),
                   lambda grad: np.swapaxes(a.values, -1, -2) @ grad)


def _elementwise(a, b, forward, grad_a, grad_b):
    try:
        out_values = forward(a.values, b.values)
    except ValueError as exc:
        raise DimensionError(
            f"incompatible elementwise shapes {a.shape} and {b.shape}"
        ) from exc
    return _binary(a, b, out_values, grad_a, grad_b)


def add(a, b):
    return _elementwise(a, b, np.add, lambda g: g, lambda g: g)


def sub(a, b):
    return _elementwise(a, b, np.subtract, lambda g: g, lambda g: -g)


def mul(a, b):
    return _elementwise(
        a, b, np.multiply, lambda g: g * b.values, lambda g: g * a.values
    )


def tanh(a):
    out_values = np.tanh(a.values)
    return _unary(a, out_values, lambda grad: _tanh_grad(out_values, grad))


_TANH_BLOCK = 1 << 17      # elements of the derivative formed at a time: 1 MiB


def _tanh_grad(y, grad):
    """Multiply ``grad`` in place by tanh's derivative 1 - y*y, y = tanh(x).

    Pass only the gradient of the node whose closure calls this: that array
    is the node's own, since ``_accumulate`` copies any gradient its closure
    did not allocate, and the walk drops it once the closure has run. The
    derivative is formed in blocks along the leading axis, in one temporary
    of at most ``_TANH_BLOCK`` elements (or one leading index), so any
    strides work. Returns ``grad``.
    """
    g, y = np.atleast_1d(grad), np.atleast_1d(y)
    step = max(1, _TANH_BLOCK // max(1, math.prod(g.shape[1:])))
    block = np.empty(y[:step].shape)
    for i in range(0, len(g), step):
        y_i = y[i: i + step]
        d = np.multiply(y_i, y_i, out=block[: len(y_i)])
        np.subtract(1.0, d, out=d)
        g[i: i + step] *= d
    return grad


def sqrt(a):
    out_values = np.sqrt(a.values)

    def grad_of(grad):
        # Subgradient 0 at exactly zero (norm of a zero vector).
        safe = np.where(out_values > 0.0, out_values, 1.0)
        return np.where(out_values > 0.0, grad * 0.5 / safe, 0.0)

    return _unary(a, out_values, grad_of)


def masked_softmax(scores, mask, axis):
    """Softmax over the allowed entries of ``scores`` along ``axis``.

    Disallowed entries come out exactly 0; allowed entries are normalized
    with max-subtraction for stability. Every slice must keep at least
    one allowed entry.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != scores.values.shape:
        raise DimensionError(
            f"mask shape {mask.shape} does not match scores shape {scores.shape}"
        )
    if not mask.any(axis=axis).all():
        raise DegenerateMaskError(f"fully-masked slice along axis {axis}")

    shifted = np.where(mask, scores.values, -np.inf)
    shifted = shifted - shifted.max(axis=axis, keepdims=True)
    expd = np.where(mask, np.exp(shifted), 0.0)
    out_values = expd / expd.sum(axis=axis, keepdims=True)

    def grad_of(grad):
        inner = (grad * out_values).sum(axis=axis, keepdims=True)
        return out_values * (grad - inner)

    return _unary(scores, out_values, grad_of)


def tensor_sum(a, axis=None, keepdims=False):
    def grad_of(grad):
        if axis is not None and not keepdims:
            grad = np.expand_dims(grad, axis)
        return np.broadcast_to(grad, a.values.shape)

    return _unary(a, a.values.sum(axis=axis, keepdims=keepdims), grad_of, fresh=False)


def cumsum(a, axis):
    # Adjoint of prefix sum is a reversed prefix sum.
    return _unary(a, np.cumsum(a.values, axis=axis),
                  lambda grad: np.flip(np.cumsum(np.flip(grad, axis), axis), axis))


def reshape(a, shape):
    return _unary(a, a.values.reshape(shape), lambda grad: grad.reshape(a.values.shape),
                  fresh=False)


def transpose(a, axes):
    return _unary(a, np.transpose(a.values, axes),
                  lambda grad: np.transpose(grad, np.argsort(axes)), fresh=False)


def tail(a, start):
    """Entries ``start`` onward along axis 1: ``a[:, start:]``."""

    def grad_of(grad):
        g = np.zeros_like(a.values)
        g[:, start:] = grad
        return g

    return _unary(a, a.values[:, start:], grad_of)


# Rows per block of a weight gradient's contraction, summed in order, so the
# block size is part of every trained model's bytes. 1,024 is the smallest
# power of two above a 4-window h36m22 chunk's 880 rows, so such a chunk's
# weight gradient is one product and z is formed once, over 4 windows. It
# also bounds the peak of an unchunked 32-window layer's backward: with no
# blocks the 32->64 h36m22 layer read 8.59 MiB and with 1,280-row blocks
# 1.94 MiB, against the 1.72 MiB its memory test allows.
_ROW_BLOCK = 1024


def _row_block_product(rows, g):
    """a.T @ g, summed over blocks of _ROW_BLOCK rows in order, where
    ``rows(i, j)`` gives rows i:j of a, so that a need not exist whole."""
    out = rows(0, _ROW_BLOCK).T @ g[:_ROW_BLOCK]
    for i in range(_ROW_BLOCK, len(g), _ROW_BLOCK):
        out += rows(i, i + _ROW_BLOCK).T @ g[i: i + _ROW_BLOCK]
    return out


def _apply_band(band, x):
    """band acting on the frame axis of x: [B, T, V, C]."""
    b, t, v, c = x.shape
    return (band @ x.reshape(b, t, v * c)).reshape(b, t, v, c)


def weight_layout(k_count, c_in, c_out):
    """The shape of a layer's weight for graph_conv, D+1 = ``k_count`` hop
    weights [C_in, C_out] in one array: [D+1, C_in, C_out] if the layer
    widens (C_in < C_out), else [C_in, D+1, C_out]. Either way both of
    graph_conv's weight products take it by a reshape."""
    return (k_count, c_in, c_out) if c_in < c_out else (c_in, k_count, c_out)


def hop_views(stack, c_in, c_out):
    """The D+1 [C_in, C_out] views of ``stack``, an array in
    ``weight_layout``: hop k's weight, or its gradient."""
    return list(stack if c_in < c_out else stack.swapaxes(0, 1))


def graph_conv(h, weight, band, hop_stack, activation=False):
    """Graph convolution sum_k kron(band, hops[k]) @ h @ W_k on poses, then
    tanh if ``activation`` is set: h [..., T, V, C_in] -> [..., T, V, C_out].

    weight: the D+1 hop weights W_k [C_in, C_out] as one tensor in
    ``weight_layout``; band: [T, T]; hop_stack: [V*(D+1), V] with row
    v*(D+1) + k equal to row v of hops[k]. The band and every hop must be
    symmetric, as ``graphs.normalize`` makes them: hop_stack then also
    stacks the transposed hops (row j*(D+1) + k is column j of hops[k]),
    and band serves as its own transpose. The (VT)^2 operators are never
    formed: the band acts on the frame axis and the hops on the joint axis.

    The band and the hops act on different axes, so they commute; each
    runs on the narrower channel side, all hops in one stacked product.
    When C_in < C_out the band acts on h, then the hops, giving
    z = [B*T*V, (D+1)*C_in], and one product with the weight writes the
    output. z is not kept: it is D+1 times as wide as h, which the graph
    holds anyway, and the weight gradient forms z again, block by block of
    rows, from the windows of h that hold the block, with the same two
    products, so the same bytes. Backward takes the input gradient back
    through the weight and the transposed hops, and applies the transposed
    band last, C_in wide. Otherwise one product h @ [W_0 ... W_D] comes
    first, then the stacked hops, and the band is applied once, to the
    sum; backward applies the transposed band first, then all hops
    stacked. Either way each gradient takes one weight product, and the
    weight gradient, one array in the weight's layout, sums its
    contraction over the B*T*V rows over fixed blocks of rows, in order
    (``_row_block_product``).

    tanh runs in place on the output, and backward multiplies the
    incoming gradient in place by its derivative 1 - y^2, formed from that
    output, so neither a pre-activation nor a derivative array is kept.
    """
    t, v = band.shape[0], hop_stack.shape[-1]
    k_count = hop_stack.shape[0] // max(v, 1)
    if band.shape != (t, t) or hop_stack.shape != (k_count * v, v):
        raise DimensionError(
            f"graph_conv needs a square band and stacked [V, V] hops, "
            f"got {band.shape} and {hop_stack.shape}"
        )
    if h.values.shape[-3:-1] != (t, v):
        raise DimensionError(f"graph has T={t} frames of V={v} joints, input is {h.shape}")
    lead, c_in, n = h.values.shape[:-3], h.values.shape[-1], t * v
    stack = weight.values
    c_out = stack.shape[-1] if stack.ndim else 0
    layout = weight_layout(k_count, c_in, c_out)
    if stack.shape != layout:
        raise DimensionError(f"graph_conv weight has shape {stack.shape}; {k_count} hops "
                             f"from {c_in} to {c_out} channels need {layout}")
    hops_first = c_in < c_out
    x = h.values.reshape(-1, t, v, c_in)
    b = x.shape[0]

    def z_rows(i, j):
        """Rows i:j of z = [B*T*V, (D+1)*C_in], formed over the whole
        windows that hold them."""
        first, end = i // n, -(-min(j, b * n) // n)
        z = hop_stack @ _apply_band(band, x[first:end])
        return z.reshape(-1, k_count * c_in)[i - first * n: j - first * n]

    if hops_first:
        w_cat = stack.reshape(k_count * c_in, c_out)
        out_values = (z_rows(0, b * n) @ w_cat).reshape(*lead, t, v, c_out)
    else:
        w_cat = stack.reshape(c_in, k_count * c_out)
        p = x.reshape(b * n, c_in) @ w_cat
        s = hop_stack.T @ p.reshape(b, t, v * k_count, c_out)
        del p                   # D+1 outputs' worth, not needed by the band product
        out_values = _apply_band(band, s).reshape(*lead, t, v, c_out)
    if activation:
        np.tanh(out_values, out=out_values)

    def backward(grad):
        h_live, w_live = _live(h), _live(weight)
        if activation:
            grad = _tanh_grad(out_values, grad)
        if hops_first:
            g = grad.reshape(b * n, c_out)
            if w_live:
                dw = _row_block_product(z_rows, g)
            if h_live:
                dz = (g @ w_cat.T).reshape(b, t, v * k_count, c_in)
                dx = hop_stack.T @ dz
                del dz                  # D+1 inputs' worth, not needed by the band product
                dx = _apply_band(band.T, dx)
        else:
            g = _apply_band(band.T, grad.reshape(b, t, v, c_out))
            # dp: all transposed hops applied to g, [B*T*V, (D+1) * C_out].
            dp = (hop_stack @ g).reshape(b * n, k_count * c_out)
            if w_live:
                x_rows = x.reshape(b * n, c_in)
                dw = _row_block_product(lambda i, j: x_rows[i:j], dp)
            if h_live:
                dx = dp @ w_cat.T
        if h_live:
            _accumulate(h, dx.reshape(h.values.shape), True)
        if w_live:
            _accumulate(weight, dw.reshape(layout), True)

    return _record(out_values, (h, weight), backward)


class AdamState:
    """Per-parameter first/second moments plus the shared step counter."""

    def __init__(self, params):
        self.step_count = 0
        self.first_moment = [np.zeros_like(p.values) for p in params]
        self.second_moment = [np.zeros_like(p.values) for p in params]


def adam_step(params, state, lr):
    """One in-place Adam update with bias correction, from every
    parameter's ``grad``. Gradients are left intact."""
    state.step_count += 1
    t = state.step_count
    for i, p in enumerate(params):
        g = p.grad
        state.first_moment[i] = BETA1 * state.first_moment[i] + (1.0 - BETA1) * g
        state.second_moment[i] = BETA2 * state.second_moment[i] + (1.0 - BETA2) * g * g
        m_hat = state.first_moment[i] / (1.0 - BETA1**t)
        v_hat = state.second_moment[i] / (1.0 - BETA2**t)
        p.values -= lr * m_hat / (np.sqrt(v_hat) + EPSILON)
