"""Layer kernels and the backward pass of the two trainable models, on numpy
arrays.

Everything trains in float32. Float64 parameters and inputs keep a whole step
in float64, which is what the finite-difference tests rely on; no kernel
silently changes dtype. Layout for images is NCHW throughout.

Every model is one fixed stack: conv layers, each a 'same' conv, a 2x2 max
pool and relu, then linear layers with relu between them, then softmax
cross-entropy. No layer feeds two others. A training step is two loops.
`models.Model.forward` with a tape runs the batch through `linear_forward`,
`conv2d_forward` and `maxpool2x2` and appends what the reverse pass reads:
each layer's input, and for a conv layer also its pool routes
(`_pool_routes`), one bool per conv output element, in place of the conv and
pool outputs, which are freed before the next layer runs. `backward` pops
that tape from the last layer to the first and writes each weight and bias
gradient once. A conv layer's backward runs `CONV_CHUNK` images at a time
from its pool's gradient to its input, so no array of it is conv-output
sized. `backward` drops each tape entry as it pops it, so a step's
activations do not outlive its backward, and only the parameters keep arrays
of the step. Under glibc's default allocator settings a warm training step
reuses the heap its first steps grew and takes no page faults
(`test_train.py` counts them). Inference keeps no tape and calls the kernels'
arithmetic, `_linear`, `_conv2d` and `_pool_max`, on the layers' arrays, so
it stays off the entry points the benchmark's tracer counts as training work.
"""

from __future__ import annotations

import numpy as np

DEFAULT_DTYPE = np.float32

_FLOAT_DTYPES = (np.float32, np.float64)


def _as_array(data) -> np.ndarray:
    a = np.asarray(data)
    return a if a.dtype in _FLOAT_DTYPES else a.astype(DEFAULT_DTYPE)


_ZEROS = object()  # Parameter's default momentum: a zeros buffer of its own


class Parameter:
    """A trainable array: its gradient (None until `backward` writes one), a
    momentum buffer and a name. The buffer is zeros unless given, and a given
    one is held without a copy. `momentum=None` leaves a parameter that is
    only read, such as one of a model loaded for scoring, without a buffer:
    `optim.sgd_momentum_step` and `checkpoint.save_checkpoint` refuse it."""

    __slots__ = ("data", "grad", "momentum", "name")

    def __init__(self, data, name: str = "", momentum: np.ndarray | None = _ZEROS):
        self.data = _as_array(data)
        self.grad = None
        self.momentum = np.zeros_like(self.data) if momentum is _ZEROS else momentum
        self.name = name


# ---------------------------------------------------------------------------
# forward kernels


def _linear(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    if x.ndim != 2 or w.ndim != 2:
        raise ValueError(f"linear_forward expects 2-d x and w, got {x.shape} and {w.shape}")
    if x.shape[1] != w.shape[1]:
        raise ValueError(f"linear_forward: x has {x.shape[1]} features, w expects {w.shape[1]}")
    return x @ w.T + b


def linear_forward(x: np.ndarray, w: Parameter, b: Parameter) -> np.ndarray:
    """y = x @ w.T + b for x (n, f_in), w (f_out, f_in), b (f_out,)."""
    return _linear(x, w.data, b.data)


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
# `models.Model.forward` without a tape runs its whole conv stack this many
# images at a time. Each image is its own conv GEMM either way, so the chunk
# changes memory, not arithmetic.
CONV_CHUNK = 4


def _conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The forward arithmetic of conv2d_forward: im2col and one GEMM per
    image, CONV_CHUNK images at a time, written into the batch output. Each
    chunk's columns are freed after its GEMMs, before the next chunk's are
    built, so one chunk of columns is live at a time."""
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
        del cols
        ys += b.reshape(1, c_out, 1)
    return y.reshape(n, c_out, h, wid)


def conv2d_forward(x: np.ndarray, w: Parameter, b: Parameter) -> np.ndarray:
    """2-d 'same' cross-correlation at stride 1, NCHW: the input is zero-padded
    by (kh//2, kw//2), so the output keeps its spatial size. Kernels must be
    odd in both dims.

    Args:
        x: input (n, c_in, h, w).
        w: kernels (c_out, c_in, kh, kw).
        b: bias (c_out,).

    Returns:
        Array of shape (n, c_out, h, w).
    """
    return _conv2d(x, w.data, b.data)


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


def maxpool2x2(x: np.ndarray) -> np.ndarray:
    """2x2 max pooling with stride 2. Both spatial dims must be even."""
    return _pool_max(x)


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy between softmax(logits) and integer labels, and its
    gradient with respect to the logits, (softmax - onehot) / n.

    Stable log-sum-exp form. Labels must lie in [0, classes).
    """
    labels = np.asarray(labels)
    if logits.ndim != 2:
        raise ValueError(f"softmax_cross_entropy expects 2-d logits, got {logits.shape}")
    n, classes = logits.shape
    if labels.shape != (n,):
        raise ValueError(f"softmax_cross_entropy: {n} rows of logits but labels shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= classes):
        raise ValueError(f"softmax_cross_entropy: label outside [0, {classes})")

    z = logits - logits.max(axis=1, keepdims=True)
    ez = np.exp(z)
    sez = ez.sum(axis=1, keepdims=True)
    log_probs = z - np.log(sez)
    loss = -log_probs[np.arange(n), labels].mean(dtype=logits.dtype)
    dlogits = ez / sez
    dlogits[np.arange(n), labels] -= 1
    dlogits /= logits.dtype.type(n)
    return float(loss), dlogits


# ---------------------------------------------------------------------------
# backward


def _linear_backward(x: np.ndarray, w: Parameter, b: Parameter, dy: np.ndarray,
                     need_dx: bool) -> np.ndarray | None:
    """Write w.grad = dy.T @ x and b.grad; dx = dy @ w only when `need_dx`,
    so a model's first layer, whose input needs no gradient, runs two GEMMs,
    not three."""
    w.grad = dy.T @ x
    b.grad = dy.sum(axis=0)
    return dy @ w.data if need_dx else None


def _conv2d_backward(x: np.ndarray, w: Parameter, b: Parameter, dy_rows,
                     need_dx: bool) -> np.ndarray | None:
    """Write conv2d_forward's weight and bias gradients; return dx when
    `need_dx`. `dy_rows(rows)` gives the conv output's gradient for the
    images of the slice `rows` (for a whole array `dy`, `dy.__getitem__`).

    The pass runs CONV_CHUNK images at a time and asks for one chunk's
    gradient at a time, so no array of it but dx spans the batch. Only the
    input is kept from forward: the chunk's im2col columns are rebuilt (Chen
    et al., 2016, trade recomputation for memory). dW is one GEMM per image
    against the columns' transposed view and db one sum per image; each is
    added image by image in batch order, which gives the bytes of a sum over
    the batch axis (`test_tensor.py` pins that for db). dx is each chunk's
    columns' gradient scattered back by `_col2im`. A chunk's columns are
    freed after its dW GEMMs, before that gradient is computed, so they are
    never live next to it or to the next chunk's.
    """
    c_out, _, kh, kw = w.data.shape
    n, _, h, wid = x.shape
    wmat = w.data.reshape(c_out, -1)
    dw = db = None
    dx = np.zeros(x.shape, dtype=np.result_type(wmat, x)) if need_dx else None
    for s in range(0, n, CONV_CHUNK):
        dys = dy_rows(slice(s, s + CONV_CHUNK))
        dys = dys.reshape(len(dys), c_out, h * wid)
        cols = _im2col(x[s : s + CONV_CHUNK], kh, kw)
        for gw, gb in zip(np.matmul(dys, cols.transpose(0, 2, 1)), dys.sum(axis=2)):
            if dw is None:
                dw, db = gw, gb
            else:
                dw += gw
                db += gb
        del cols, gw  # gw views the chunk's dW GEMM output
        if dx is not None:
            _col2im(np.matmul(wmat.T, dys), dx[s : s + CONV_CHUNK], kh, kw)
    w.grad = dw.reshape(w.data.shape)
    b.grad = db
    return dx


# the four positions of a 2x2 pool window, in row-major order
_POOL_POSITIONS = ((0, 0), (0, 1), (1, 0), (1, 1))


def _pool_routes(a: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Where maxpool2x2's gradient goes, given its input `a` and output `y`:
    a bool array (4, *y.shape) whose k-th plane marks the windows that route
    to their k-th position in `_POOL_POSITIONS`.

    Each window routes to the first of its positions, in row-major order,
    whose value equals the window's max, so a tie goes to the top-left-most
    winner, as an argmax over the window picks it. A window holding NaN pools
    to NaN and routes nothing, where an argmax would pick its first NaN; its
    loss is NaN either way. On a window that mixes -0.0 and +0.0 as its max,
    the pooled value may carry either sign, while an argmax pick returns the
    first one's. The models pool raw conv output, which holds -0.0 only where
    its bias is -0.0 (GEMM sum + bias); a bias starts at +0.0, and SGD's
    subtractions never make -0.0 of it, so no trained artifact depends on
    that sign.
    """
    routes = np.empty((4, *y.shape), dtype=bool)
    free = np.ones(y.shape, dtype=bool)  # windows not yet routed
    for hit, (i, j) in zip(routes, _POOL_POSITIONS):
        np.equal(a[:, :, i::2, j::2], y, out=hit)
        hit &= free
        free ^= hit
    return routes


def _maxpool2x2_backward(routes: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """The gradient of maxpool2x2's input: `dy` at the positions `routes`
    (`_pool_routes`) marks, +0.0 at the other three of each window."""
    n, c, oh, ow = dy.shape
    uint = np.dtype(f"u{dy.itemsize}")
    dx = np.empty((n, c, 2 * oh, 2 * ow), dtype=dy.dtype)
    # multiplying dy's bits by 0 or 1 keeps dy exact, where the float product
    # dy * hit would write -0.0 under a negative dy; the bool plane is cast
    # in the ufunc's buffer, so no uint copy of it is made
    dy_bits, dx_bits = dy.view(uint), dx.view(uint)
    for hit, (i, j) in zip(routes, _POOL_POSITIONS):
        np.multiply(dy_bits, hit, out=dx_bits[:, :, i::2, j::2])
    return dx


def backward(layers, tape: list, dlogits: np.ndarray):
    """Write every weight and bias gradient of `layers` (`models.Layer`s) for
    the loss whose logits gradient is `dlogits`, reading the `tape` that
    `models.Model.forward` filled for that loss.

    One pass from the last layer to the first. A linear layer pops its input;
    a conv layer pops its pool routes and input and runs its backward one
    CONV_CHUNK of images at a time, each chunk from the pool's gradient
    through that chunk's routes to the conv's input (`_conv2d_backward`), so
    no conv-output-sized gradient exists. Below every layer but the
    first, the gradient reaching the layer's input passes the relu that made
    that input: it is kept where the input is above zero, which is where the
    relu's own input was, so no pre-activation is kept for it. The first layer
    computes no input gradient. Each gradient is assigned once, and the tape
    is empty when this returns, so each activation is freed once its layer
    is done.
    """
    dy = dlogits
    for layer in reversed(layers):
        if layer.kind == "conv":
            routes, x = tape.pop(), tape.pop()
            pooled = dy.reshape(routes.shape[1:])
            dy = _conv2d_backward(
                x, layer.weight, layer.bias,
                lambda rows: _maxpool2x2_backward(routes[:, rows], pooled[rows]), bool(tape))
            del routes, pooled
        else:
            x = tape.pop()
            dy = _linear_backward(x, layer.weight, layer.bias, dy, bool(tape))
        if dy is not None:
            dy *= x > 0  # the relu below this layer
