"""Reverse-mode autograd on numpy arrays.

Everything trains in float32. Passing float64 arrays in keeps the whole graph
in float64, which is what the finite-difference tests rely on; no op silently
changes dtype. Layout for images is NCHW throughout. Inside `no_grad()` the
ops record no graph, so inference frees each intermediate as soon as the next
op has consumed it, and `layer_kernels()` hands out forward-only forms of the
layer kernels. `backward` lets go of the graph as it walks it: once a node's
grad_fn has run, the node drops its gradient, its grad_fn (and with it the
arrays the closure kept for backward) and its parents. So a step's
activations do not outlive its backward, even while the caller still holds
the loss, and only leaves keep `.grad`.

Importing this module sets glibc's allocator policy once (see
`_keep_freed_memory`): a training step frees and reallocates the same
multi-MB temporaries every step, and the policy keeps that memory in the
process instead of handing it back to the kernel and faulting it in again.
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes

import numpy as np

DEFAULT_DTYPE = np.float32

_FLOAT_DTYPES = (np.float32, np.float64)

# glibc's mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory():
    """Keep freed memory in the process: blocks below 32 MiB (glibc's largest
    mmap threshold on 64-bit) come from the heap, not from a fresh mmap, and
    the heap is not trimmed until 128 MiB of it lies free at the top. A step's
    temporaries are then reused from the heap, where glibc's defaults unmap
    them and take a page fault for each page when they come back. RSS then
    does not drop after large frees until the process exits. Where libc has
    no `mallopt` this does nothing."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 128 << 20)


_keep_freed_memory()


class GraphError(RuntimeError):
    """Raised when backward is asked to walk a graph that was already consumed."""


def _as_array(data) -> np.ndarray:
    a = np.asarray(data)
    return a if a.dtype in _FLOAT_DTYPES else a.astype(DEFAULT_DTYPE)


class Tensor:
    """An ndarray plus the bookkeeping needed to run backward through it.

    Interior nodes hold a closure (`_grad_fn`) that routes the incoming
    gradient to `_parents`. Leaves have neither. `grad` is filled in by
    :func:`backward` and accumulates across multiple uses of the same node.
    Backward releases the graph behind it: an interior node it has passed
    keeps neither `_grad_fn`, `_parents` nor `grad`, only its `data` and a
    consumed mark, so a second backward through it raises
    :class:`GraphError`. Leaves keep their `grad`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_grad_fn", "_consumed")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _grad_fn=None):
        self.data = _as_array(data)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = tuple(_parents)
        self._grad_fn = _grad_fn
        self._consumed = False

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        tag = "Parameter" if isinstance(self, Parameter) else "Tensor"
        return f"{tag}(shape={self.data.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"


class Parameter(Tensor):
    """Trainable leaf: a tensor with a momentum buffer (zeros unless given,
    held without a copy) and a name."""

    __slots__ = ("momentum", "name")

    def __init__(self, data, name: str = "", momentum: np.ndarray | None = None):
        super().__init__(data, requires_grad=True)
        self.momentum = np.zeros_like(self.data) if momentum is None else momentum
        self.name = name


_grad_enabled = contextvars.ContextVar("dstforge_grad_enabled", default=True)


@contextlib.contextmanager
def no_grad():
    """Run ops without recording a graph: every result is a leaf tensor with
    requires_grad False, whatever its inputs. The previous mode comes back
    when the block exits, also on an exception."""
    token = _grad_enabled.set(False)
    try:
        yield
    finally:
        _grad_enabled.reset(token)


def grad_enabled() -> bool:
    return _grad_enabled.get()


def _make(data, parents, grad_fn) -> Tensor:
    if not (grad_enabled() and any(p.requires_grad for p in parents)):
        return Tensor(data)
    return Tensor(data, requires_grad=True, _parents=parents, _grad_fn=grad_fn)


def _accum(t: Tensor, g: np.ndarray):
    """Add `g` into `t.grad`. The first gradient is stored as is, not copied:
    every grad_fn hands over an array it built for that call, or a view into
    one. The exception, flatten's `dy.reshape`, points into its output's
    gradient, which no node reads once flatten's grad_fn has run, so a later
    `+=` into it is safe."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g
    else:
        t.grad += g


# ---------------------------------------------------------------------------
# ops


def _linear(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    if x.ndim != 2 or w.ndim != 2:
        raise ValueError(f"linear_forward expects 2-d x and w, got {x.shape} and {w.shape}")
    if x.shape[1] != w.shape[1]:
        raise ValueError(f"linear_forward: x has {x.shape[1]} features, w expects {w.shape[1]}")
    return x @ w.T + b


def linear_forward(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """y = x @ w.T + b for x (n, f_in), w (f_out, f_in), b (f_out,).

    Backward computes dx = dy @ w only when x requires a gradient, as
    `conv2d_forward` does; a model's first layer reads a gradient-free leaf,
    so its step runs two GEMMs, not three.
    """
    y = _linear(x.data, w.data, b.data)

    def grad_fn(dy):
        if x.requires_grad:
            _accum(x, dy @ w.data)
        _accum(w, dy.T @ x.data)
        _accum(b, dy.sum(axis=0))

    return _make(y, (x, w, b), grad_fn)


def _window_offsets(kh: int, kw: int, size: tuple[int, int]):
    """For each kernel offset (i, j) in row-major order: (i, j, oy, ox, iy, ix),
    the output and input slices it pairs. Output (y, x) reads input
    (y + i - kh//2, x + j - kw//2); only outputs whose input lies inside
    `size` are kept. The rest read zero padding, so im2col leaves them zero
    and col2im drops them, and no padded copy of x is made."""
    def axis(d: int, n: int):
        lo = max(0, -d)
        hi = max(lo, n - max(0, d))
        return slice(lo, hi), slice(lo + d, hi + d)

    for i in range(kh):
        oy, iy = axis(i - kh // 2, size[0])
        for j in range(kw):
            ox, ix = axis(j - kw // 2, size[1])
            yield i, j, oy, ox, iy, ix


def _im2col(x: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """Columns (n, c*kh*kw, h*w) in (c, kh, kw) row order, the kernels' own."""
    n, c, h, w = x.shape
    cols = np.zeros((n, c, kh, kw, h, w), dtype=x.dtype)
    for i, j, oy, ox, iy, ix in _window_offsets(kh, kw, (h, w)):
        cols[:, :, i, j, oy, ox] = x[:, :, iy, ix]
    return cols.reshape(n, c * kh * kw, h * w)


def _col2im(dcols: np.ndarray, dx: np.ndarray, kh: int, kw: int):
    """The adjoint of `_im2col`: add the columns' gradient into `dx` (zeros,
    or a partial sum), window offset by window offset in row-major order."""
    n, c, h, w = dx.shape
    dcols = dcols.reshape(n, c, kh, kw, h, w)
    for i, j, oy, ox, iy, ix in _window_offsets(kh, kw, (h, w)):
        dx[:, :, iy, ix] += dcols[:, :, i, j, oy, ox]


# images per chunk of a convolution: its im2col columns exist for at most
# this many images at a time, in forward and again in backward, which
# rebuilds them instead of keeping them. That bounds a conv's working set to
# CONV_CHUNK * c_in*kh*kw * h*w column elements whatever the batch size
# (1.2 MB for the small convnet's conv2, against 5.9 MB at batch 20).
# `models.Model.forward` runs its whole conv stack this many images at a time
# under `no_grad`. Each image is its own conv GEMM either way, so the chunk
# changes memory, not arithmetic.
CONV_CHUNK = 4


def _conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The forward arithmetic of conv2d_forward: im2col and one GEMM per
    image, CONV_CHUNK images at a time, written into the batch output."""
    if x.ndim != 4 or w.ndim != 4:
        raise ValueError(f"conv2d_forward expects 4-d x and w, got {x.shape} and {w.shape}")
    n, c_in, h, wid = x.shape
    c_out, c_in_w, kh, kw = w.shape
    if c_in != c_in_w:
        raise ValueError(f"conv2d_forward: x has {c_in} channels, kernels expect {c_in_w}")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError(f"conv2d_forward: a 'same' conv needs an odd kernel, got {kh}x{kw}")

    wmat = w.reshape(c_out, -1)
    y = np.empty((n, c_out, h * wid), dtype=np.result_type(w, x))
    for s in range(0, n, CONV_CHUNK):
        cols = _im2col(x[s : s + CONV_CHUNK], kh, kw)
        ys = y[s : s + CONV_CHUNK]
        np.matmul(wmat, cols, out=ys)
        ys += b.reshape(1, c_out, 1)
    return y.reshape(n, c_out, h, wid)


def conv2d_forward(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """2-d 'same' cross-correlation at stride 1, NCHW: the input is zero-padded
    by (kh//2, kw//2), so the output keeps its spatial size. Kernels must be
    odd in both dims.

    Args:
        x: input (n, c_in, h, w).
        w: kernels (c_out, c_in, kh, kw).
        b: bias (c_out,).

    Returns:
        Tensor of shape (n, c_out, h, w).

    Backward keeps only the input: it rebuilds the im2col columns CONV_CHUNK
    images at a time (Chen et al., 2016, trade recomputation for memory).
    dW is one GEMM per image against the columns' transposed view, added
    image by image in batch order, the order of a sum over the batch axis.
    dx is each chunk's columns' gradient scattered back by `_col2im`.
    """
    y = _conv2d(x.data, w.data, b.data)
    c_out, _, kh, kw = w.data.shape
    n, _, h, wid = y.shape

    def grad_fn(dy):
        dymat = dy.reshape(n, c_out, h * wid)
        wmat = w.data.reshape(c_out, -1)
        dw = None
        dx = np.zeros(x.data.shape, dtype=np.result_type(wmat, dymat)) if x.requires_grad else None
        for s in range(0, n, CONV_CHUNK):
            dys = dymat[s : s + CONV_CHUNK]
            cols = _im2col(x.data[s : s + CONV_CHUNK], kh, kw)
            for g in np.matmul(dys, cols.transpose(0, 2, 1)):
                if dw is None:
                    dw = g
                else:
                    dw += g
            if dx is not None:
                _col2im(np.matmul(wmat.T, dys), dx[s : s + CONV_CHUNK], kh, kw)
        _accum(w, dw.reshape(w.data.shape))
        _accum(b, dy.sum(axis=(0, 2, 3)))
        if dx is not None:
            _accum(x, dx)

    return _make(y, (x, w, b), grad_fn)


def relu(x: Tensor) -> Tensor:
    y = np.maximum(x.data, 0)

    def grad_fn(dy):
        _accum(x, dy * (x.data > 0))

    return _make(y, (x,), grad_fn)


def _pool_max(x: np.ndarray) -> np.ndarray:
    """The values of maxpool2x2: a pairwise maximum over the four strided
    window positions, written into one output array."""
    if x.ndim != 4:
        raise ValueError(f"maxpool2x2 expects 4-d input, got {x.shape}")
    if x.shape[2] % 2 or x.shape[3] % 2:
        raise ValueError(f"maxpool2x2 needs even spatial dims, got {x.shape[2]}x{x.shape[3]}")
    y = np.maximum(x[:, :, 0::2, 0::2], x[:, :, 0::2, 1::2])
    np.maximum(y, x[:, :, 1::2, 0::2], out=y)
    return np.maximum(y, x[:, :, 1::2, 1::2], out=y)


def maxpool2x2(x: Tensor) -> Tensor:
    """2x2 max pooling with stride 2. Both spatial dims must be even.

    Backward routes each window's gradient to the first of its positions, in
    row-major order, whose value equals the window's max; the other three
    get +0.0. So a tie goes to the top-left-most winner, as an argmax over
    the window picks it. A window holding NaN pools to NaN and routes
    nothing, where an argmax would pick its first NaN; its loss is NaN
    either way. On a window that mixes -0.0 and +0.0 as its max, the pooled
    value may carry either sign, while an argmax pick returns the first
    one's. The models pool raw conv output, which holds -0.0 only where its
    bias is -0.0 (GEMM sum + bias); a bias starts at +0.0, and SGD's
    subtractions never make -0.0 of it, so no trained artifact depends on
    that sign.
    """
    y = _pool_max(x.data)

    def grad_fn(dy):
        a = x.data
        uint = np.dtype(f"u{a.itemsize}")
        dx = np.empty_like(a)
        # dy where a window routes to this position, +0.0 elsewhere: masking
        # the bits keeps dy exact, where dy * hit would write -0.0 under a
        # negative dy
        dy_bits, dx_bits = dy.astype(a.dtype, copy=False).view(uint), dx.view(uint)
        free = np.ones(y.shape, dtype=bool)  # windows not yet routed
        for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):  # row-major
            hit = a[:, :, i::2, j::2] == y
            hit &= free
            free ^= hit
            np.bitwise_and(dy_bits, np.negative(hit, dtype=uint), out=dx_bits[:, :, i::2, j::2])
        _accum(x, dx)

    return _make(y, (x,), grad_fn)


def flatten(x: Tensor) -> Tensor:
    """Collapse everything past the batch axis; element count is preserved."""
    n = x.data.shape[0]
    y = x.data.reshape(n, -1)

    def grad_fn(dy):
        _accum(x, dy.reshape(x.data.shape))

    return _make(y, (x,), grad_fn)


def _linear_eval(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    return Tensor(_linear(x.data, w.data, b.data))


def _conv2d_eval(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    return Tensor(_conv2d(x.data, w.data, b.data))


def _maxpool2x2_eval(x: Tensor) -> Tensor:
    return Tensor(_pool_max(x.data))


def layer_kernels():
    """(linear, conv2d, maxpool) for the current grad mode: the graph ops
    `linear_forward`, `conv2d_forward` and `maxpool2x2`, or inside `no_grad`
    forward-only forms of them, which run the graph ops' own forward
    arithmetic (`_linear`, `_conv2d`, `_pool_max`) and keep nothing for a
    backward pass.
    Inference thus stays off the graph ops' entry points, which the
    benchmark's traced pass (perfbench/tracing.py) counts as training work."""
    if grad_enabled():
        return linear_forward, conv2d_forward, maxpool2x2
    return _linear_eval, _conv2d_eval, _maxpool2x2_eval


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy between softmax(logits) and integer labels.

    Stable log-sum-exp form; returns a scalar tensor. Labels must lie in
    [0, classes).
    """
    labels = np.asarray(labels)
    if logits.data.ndim != 2:
        raise ValueError(f"softmax_cross_entropy expects 2-d logits, got {logits.data.shape}")
    n, classes = logits.data.shape
    if labels.shape != (n,):
        raise ValueError(f"softmax_cross_entropy: {n} rows of logits but labels shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= classes):
        raise ValueError(f"softmax_cross_entropy: label outside [0, {classes})")

    z = logits.data - logits.data.max(axis=1, keepdims=True)
    ez = np.exp(z)
    sez = ez.sum(axis=1, keepdims=True)
    log_probs = z - np.log(sez)
    loss = -log_probs[np.arange(n), labels].mean(dtype=logits.data.dtype)

    def grad_fn(dy):
        softmax = ez / sez
        softmax[np.arange(n), labels] -= 1
        _accum(logits, dy * softmax / logits.data.dtype.type(n))

    return _make(np.asarray(loss, dtype=logits.data.dtype), (logits,), grad_fn)


# ---------------------------------------------------------------------------
# backward


def backward(loss: Tensor):
    """Run reverse-mode accumulation from a scalar loss.

    Nodes are visited in a fixed reverse-topological order, so gradient
    accumulation happens in a deterministic sequence. Once an interior node's
    grad_fn has run, the node drops its gradient, its grad_fn and its
    parents, and leaves the list of nodes still to visit. So the step holds
    only the gradients in flight and the activations that nodes not yet
    visited still read, and nothing of the graph outlives backward, even
    while the caller holds the loss. Leaves (the parameters) keep their
    gradients. Each graph can be walked once; a second backward through any
    already-consumed node raises :class:`GraphError`.
    """
    if loss.data.ndim != 0 and loss.data.size != 1:
        raise ValueError(f"backward expects a scalar loss, got shape {loss.data.shape}")
    if not loss.requires_grad:
        raise ValueError("backward: loss does not require grad (no trainable inputs)")

    topo: list[Tensor] = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._consumed:
            raise GraphError("backward through a stale graph: this graph was already consumed")
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))

    loss.grad = np.ones_like(loss.data)
    while topo:
        node = topo.pop()
        if node._grad_fn is not None:
            node._grad_fn(node.grad)
            node._consumed = True
            node.grad = node._grad_fn = None
            node._parents = ()
