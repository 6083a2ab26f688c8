"""Layer kernels and the training step: forward anchors, gradient checks, the tape."""

import itertools
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    MARGIN,
    check_param_grads,
    layer_stack,
    numeric_grad,
    relu_margin,
    step_gradients,
)

import dstforge.tensor
from dstforge.models import build_model, parse_model_spec
from dstforge.tensor import (
    CONV_CHUNK,
    Parameter,
    _conv2d,
    _conv2d_backward,
    _linear,
    _linear_backward,
    _maxpool2x2_backward,
    _pool_max,
    _pool_routes,
    backward,
    conv2d_forward,
    linear_forward,
    maxpool2x2,
    softmax_cross_entropy,
)


def test_linear_forward_anchor():
    x = np.array([[1.0, 1.0]], dtype=np.float32)
    w = Parameter(np.array([[2.0, 3.0]], dtype=np.float32), name="w")
    b = Parameter(np.array([1.0], dtype=np.float32), name="b")
    y = linear_forward(x, w, b)
    assert y.shape == (1, 1)
    assert y[0, 0] == pytest.approx(6.0)


def test_conv_forward_anchor():
    # a 3x3 window of ones over a zero-padded 3x3 image of ones counts the
    # image pixels it covers
    x = np.ones((1, 1, 3, 3), dtype=np.float32)
    w = Parameter(np.ones((1, 1, 3, 3), dtype=np.float32), name="w")
    b = Parameter(np.zeros(1, dtype=np.float32), name="b")
    y = conv2d_forward(x, w, b)
    np.testing.assert_array_equal(y[0, 0], [[4.0, 6.0, 4.0], [6.0, 9.0, 6.0], [4.0, 6.0, 4.0]])


def test_conv_padding_shape():
    x = np.ones((2, 3, 8, 8), dtype=np.float32)
    for kh, kw in ((3, 3), (1, 5), (5, 1)):
        w = Parameter(np.ones((5, 3, kh, kw), dtype=np.float32), name="w")
        b = Parameter(np.zeros(5, dtype=np.float32), name="b")
        assert conv2d_forward(x, w, b).shape == (2, 5, 8, 8)


def test_conv_rejects_an_even_kernel():
    x = np.ones((1, 1, 4, 4), dtype=np.float32)
    b = Parameter(np.zeros(1, dtype=np.float32), name="b")
    for kh, kw in ((2, 2), (2, 3), (3, 2), (3, 4)):
        w = Parameter(np.ones((1, 1, kh, kw), dtype=np.float32), name="w")
        with pytest.raises(ValueError, match="odd kernel"):
            conv2d_forward(x, w, b)


def test_cross_entropy_anchor():
    logits = np.array([[1.0, 2.0, 3.0]], dtype=np.float32)
    loss, dlogits = softmax_cross_entropy(logits, np.array([2]))
    assert loss == pytest.approx(0.40761, abs=1e-5)
    # softmax minus the one-hot label, over the batch of one
    np.testing.assert_allclose(dlogits, [[0.09003057, 0.24472847, -0.33475904]], rtol=1e-6)


def test_cross_entropy_uniform_logits():
    for c in (2, 5, 10):
        logits = np.zeros((4, c), dtype=np.float32)
        loss, dlogits = softmax_cross_entropy(logits, np.zeros(4, dtype=np.int64))
        assert loss == pytest.approx(np.log(c), rel=1e-6)
        # each row's gradient is divided by the batch size
        want = np.full((4, c), 1.0 / c, dtype=np.float32)
        want[:, 0] -= 1
        assert dlogits.dtype == np.float32
        np.testing.assert_allclose(dlogits, want / 4, rtol=1e-6)


def test_cross_entropy_rejects_bad_labels():
    logits = np.zeros((2, 3), dtype=np.float32)
    with pytest.raises(ValueError):
        softmax_cross_entropy(logits, np.array([0, 3]))
    with pytest.raises(ValueError):
        softmax_cross_entropy(logits, np.array([-1, 0]))


def test_relu_forward():
    # identity layers: the logits are the relu between the two layers
    eye, zero = np.eye(3, dtype=np.float32), np.zeros(3, dtype=np.float32)
    model = layer_stack((eye, zero), (eye, zero))
    x = np.array([[-1.0, 0.0, 2.0]], dtype=np.float32)
    np.testing.assert_array_equal(model.forward(x), [[0.0, 0.0, 2.0]])
    np.testing.assert_array_equal(model.forward(x, []), [[0.0, 0.0, 2.0]])


def test_maxpool_requires_even_dims():
    x = np.ones((1, 1, 3, 4), dtype=np.float32)
    with pytest.raises(ValueError):
        maxpool2x2(x)


def test_maxpool_forward():
    x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
    y = maxpool2x2(x)
    np.testing.assert_array_equal(y[0, 0], [[5.0, 7.0], [13.0, 15.0]])


def _pool_oracle(a: np.ndarray, dy: np.ndarray):
    """maxpool2x2 by a loop over windows: each takes the first of its maxima
    in row-major order, which alone receives dy; every other position +0.0.
    A window holding NaN pools to its NaN and routes nothing."""
    y, dx = np.empty_like(dy), np.zeros_like(a)
    for b, c, i, j in np.ndindex(*dy.shape):
        win = a[b, c, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
        if np.isnan(win).any():
            y[b, c, i, j] = win[np.isnan(win)][0]
            continue
        r, s = next((r, s) for r in range(2) for s in range(2) if win[r, s] == win.max())
        y[b, c, i, j] = win[r, s]
        dx[b, c, 2 * i + r, 2 * j + s] = dy[b, c, i, j]
    return y, dx


@settings(deadline=None, max_examples=80)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 4), st.integers(1, 4),
       st.sampled_from([np.float32, np.float64]),
       st.sampled_from(["ints", "relu", "zero_windows", "nan", "signed_zeros"]),
       st.integers(0, 2**32 - 1))
def test_maxpool_matches_a_window_loop_bytewise(n, c, oh, ow, dtype, inputs, seed):
    rng = np.random.default_rng(seed)
    shape = (n, c, 2 * oh, 2 * ow)
    if inputs == "ints":
        # one value per window, half the positions redrawn: ties of two to four
        a = rng.integers(-2, 3, (n, c, oh, ow)).repeat(2, axis=2).repeat(2, axis=3)
        redraw = rng.random(shape) < 0.5
        a[redraw] = rng.integers(-2, 3, int(redraw.sum()))
    elif inputs == "signed_zeros":
        # windows whose max is -0.0, +0.0 or both
        a = rng.choice([-0.0, 0.0, -1.0], shape)
    else:
        a = np.maximum(rng.standard_normal(shape), 0.0)
        if inputs == "zero_windows":
            a[(rng.random((n, c, oh, ow)) < 0.5).repeat(2, axis=2).repeat(2, axis=3)] = 0.0
        if inputs == "nan":
            a[rng.random(shape) < 0.2] = np.nan
    a = a.astype(dtype)
    dy = rng.standard_normal((n, c, oh, ow)).astype(dtype)
    dy[rng.random(dy.shape) < 0.2] = -0.0
    want_y, want_dx = _pool_oracle(a, dy)

    y = maxpool2x2(a)
    routes = _pool_routes(a, y)
    dx = _maxpool2x2_backward(routes, dy)
    assert routes.dtype == bool and routes.shape == (4, *y.shape)
    assert y.dtype == dx.dtype == dtype
    if inputs == "signed_zeros":  # a -0.0/+0.0 window's max may carry either sign
        assert np.array_equal(y, want_y)
    else:
        assert y.tobytes() == want_y.tobytes()
    assert dx.tobytes() == want_dx.tobytes()
    for odd in (a[:, :, 1:], a[:, :, :, 1:]):
        with pytest.raises(ValueError):
            maxpool2x2(odd)


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
       st.sampled_from([np.float32, np.float64]), st.integers(0, 2**32 - 1))
def test_pool_then_relu_equals_relu_then_pool(n, c_out, oh, ow, dtype, seed):
    # small integer inputs, kernels and biases make conv outputs with ties,
    # exact zeros and negatives, and whole windows at or below zero
    rng = np.random.default_rng(seed)
    x = rng.integers(-1, 2, (n, 2, 2 * oh, 2 * ow)).astype(dtype)
    w = Parameter(rng.integers(-1, 2, (c_out, 2, 3, 3)).astype(dtype), name="w")
    b = Parameter(rng.integers(-1, 2, c_out).astype(dtype), name="b")
    y = conv2d_forward(x, w, b)
    dy = rng.standard_normal((n, c_out, oh, ow)).astype(dtype)
    dy[rng.random(dy.shape) < 0.2] = -0.0

    # pool, then relu: the order the models run
    pooled = maxpool2x2(y)
    pool_relu = np.maximum(pooled, 0)
    d_pool_relu = _maxpool2x2_backward(_pool_routes(y, pooled), dy * (pooled > 0))
    # relu, then pool
    rectified = np.maximum(y, 0)
    relu_pool = maxpool2x2(rectified)
    d_relu_pool = _maxpool2x2_backward(_pool_routes(rectified, relu_pool), dy) * (y > 0)
    assert pool_relu.dtype == relu_pool.dtype == dtype
    assert pool_relu.tobytes() == relu_pool.tobytes()
    # equal as numbers: the two orders differ only in the sign of a zero
    # gradient, at windows whose max is not above zero
    assert d_pool_relu.dtype == d_relu_pool.dtype == dtype
    assert np.array_equal(d_pool_relu, d_relu_pool)


# odd kernel sides: each kernel pairs with the 'same' padding of kh//2, kw//2
KERNEL_SIDES = (1, 3, 5)


def _conv_operands(rng, dtype, *shapes):
    """One array of `dtype` per shape: standard normal in float64; small
    integers in float32, whose products and sums at these sizes are exact,
    so a float32 result has one right value whatever the summation order."""
    if dtype == np.float64:
        return [rng.standard_normal(s) for s in shapes]
    return [rng.integers(-3, 4, s).astype(np.float32) for s in shapes]


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 7), st.integers(1, 7),
       st.integers(0, 2**32 - 1))
def test_conv_forward_matches_a_padded_window_loop(c_in, c_out, h, w, seed):
    # every odd kernel side of 1, 3 and 5 on each axis, square and not, in
    # both dtypes; kernels wider than the image read only padding past it
    rng = np.random.default_rng(seed)
    for kh, kw, dtype in itertools.product(KERNEL_SIDES, KERNEL_SIDES, (np.float32, np.float64)):
        x, wt, b = _conv_operands(rng, dtype, (2, c_in, h, w), (c_out, c_in, kh, kw), (c_out,))
        xp = np.pad(x.astype(np.float64), ((0, 0), (0, 0), (kh // 2, kh // 2), (kw // 2, kw // 2)))
        want = np.empty((2, c_out, h, w))
        for i, j in np.ndindex(h, w):
            win = xp[:, :, i : i + kh, j : j + kw]
            want[:, :, i, j] = np.einsum("nchw,ochw->no", win, wt) + b
        got = conv2d_forward(x, Parameter(wt, name="w"), Parameter(b, name="b"))
        assert got.dtype == dtype
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("pw", [1, 2])
@pytest.mark.parametrize("ph", [0, 1, 2])
def test_chunked_conv_matches_the_whole_batch_arithmetic_bytewise(ph, pw):
    # a (2*ph + 1) x (2*pw + 1) kernel, padded by (ph, pw); an uneven last
    # chunk; the reference builds every image's columns at once, sums dW
    # over the batch axis and scatters dx in one pass
    n, c_in, c_out, kh, kw, h, w = 2 * CONV_CHUNK + 3, 3, 5, 2 * ph + 1, 2 * pw + 1, 7, 6
    rng = np.random.default_rng(17)
    x = rng.standard_normal((n, c_in, h, w)).astype(np.float32)
    wt = Parameter(rng.standard_normal((c_out, c_in, kh, kw)).astype(np.float32), name="w")
    b = Parameter(rng.standard_normal(c_out).astype(np.float32), name="b")
    y = conv2d_forward(x, wt, b)
    assert y.shape == (n, c_out, h, w)
    dy = rng.standard_normal(y.shape).astype(np.float32)
    dx = _conv2d_backward(x, wt, b, dy, True)

    cols = dstforge.tensor._im2col(x, kh, kw)
    wmat = wt.data.reshape(c_out, -1)
    want_y = np.matmul(wmat, cols)
    want_y += b.data.reshape(1, c_out, 1)
    dymat = dy.reshape(n, c_out, h * w)
    want_dw = np.matmul(dymat, cols.transpose(0, 2, 1)).sum(axis=0).reshape(wt.data.shape)
    want_dx = np.zeros_like(x)
    dstforge.tensor._col2im(np.matmul(wmat.T, dymat), want_dx, kh, kw)
    for got, want in ((y, want_y.reshape(y.shape)), (wt.grad, want_dw),
                      (b.grad, dy.sum(axis=(0, 2, 3))), (dx, want_dx)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_conv_backward_allocates_less_than_the_full_batch_columns():
    # conv2 of the small convnet at batch 20: its im2col columns for the
    # whole batch would take 20*288*256*4 bytes; backward rebuilds them one
    # chunk at a time instead
    rng = np.random.default_rng(8)
    n = 20
    x = rng.standard_normal((n, 32, 16, 16)).astype(np.float32)
    w = Parameter(rng.standard_normal((64, 32, 3, 3)).astype(np.float32), name="w")
    b = Parameter(np.zeros(64, dtype=np.float32), name="b")
    y = conv2d_forward(x, w, b)
    dy = rng.standard_normal(y.shape).astype(np.float32)
    tracemalloc.start()
    try:
        dx = _conv2d_backward(x, w, b, dy, True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dx is not None and w.grad is not None
    assert peak < n * 288 * 256 * 4


def test_a_warm_convnet_step_holds_one_chunk_of_columns_at_a_time():
    # forward and backward free each CONV_CHUNK's im2col columns after its
    # GEMMs, before the next chunk's are built. A warm small_convnet step at
    # batch 20 peaked 8.43 MB above its entry when a chunk's columns lived
    # into the next chunk's im2col, and 7.15 MB when they do not
    model = build_model(parse_model_spec("small_convnet:3x32x32-10"), np.random.default_rng(0))
    r = np.random.default_rng(1)
    x = r.random((20, 3, 32, 32)).astype(np.float32)
    labels = r.integers(0, 10, 20)

    def step():
        model.zero_grad()
        tape = []
        _, dlogits = softmax_cross_entropy(model.forward(x, tape), labels)
        backward(model.layers, tape, dlogits)

    step()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        step()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 7_600_000


def test_flatten_shape():
    # the tape of a convnet step: per conv layer its input and pool routes,
    # one bool per conv output element; per linear layer its input, fc1's
    # flattened
    model = build_model(parse_model_spec("small_convnet:3x8x8-10"), np.random.default_rng(2))
    x = np.random.default_rng(3).random((3, 3, 8, 8)).astype(np.float32)
    tape = []
    model.forward(x, tape)
    assert [(a.shape, a.dtype) for a in tape] == [
        ((3, 3, 8, 8), np.float32), ((4, 3, 32, 4, 4), bool),
        ((3, 32, 4, 4), np.float32), ((4, 3, 64, 2, 2), bool),
        ((3, 256), np.float32), ((3, 128), np.float32)]
    assert tape[0] is x


def test_a_convnet_tape_holds_no_conv_output():
    # at 3x32x32 conv1's output takes n*32*32*32*4 bytes and conv2's half
    # that. The tape holds each conv layer's input and routes and the relu'd
    # pool outputs, a quarter of that or less each, and forward frees every
    # conv and pool output it made before it returns
    model = build_model(parse_model_spec("small_convnet:3x32x32-10"), np.random.default_rng(2))
    n = 4
    x = np.random.default_rng(3).random((n, 3, 32, 32)).astype(np.float32)
    conv1_bytes, conv2_bytes = n * 32 * 32 * 32 * 4, n * 64 * 16 * 16 * 4
    tape = []
    tracemalloc.start()
    try:
        logits = model.forward(x, tape)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert logits.shape == (n, 10)
    assert max(a.nbytes for a in tape) < conv2_bytes
    assert held < conv1_bytes


def test_backward_keeps_only_the_leaf_gradients():
    # backward empties the tape and lets go of each activation once its
    # layer is done: by conv1's turn nothing above it is alive. Afterwards
    # the parameters alone hold arrays of the step, one gradient each
    model = build_model(parse_model_spec("small_convnet:1x8x8-10"), np.random.default_rng(4))
    x = np.random.default_rng(5).random((3, 1, 8, 8)).astype(np.float32)
    tape = []
    _, dlogits = softmax_cross_entropy(model.forward(x, tape), np.array([0, 4, 9]))
    held = [weakref.ref(a) for a in tape[1:]]
    alive_at_conv1 = []
    real_conv2d_backward = dstforge.tensor._conv2d_backward

    def spy(x_in, w, *args):
        if w is model.layers[0].weight:
            alive_at_conv1.append([ref() is not None for ref in held])
        return real_conv2d_backward(x_in, w, *args)

    dstforge.tensor._conv2d_backward = spy
    try:
        backward(model.layers, tape, dlogits)
    finally:
        dstforge.tensor._conv2d_backward = real_conv2d_backward
    assert tape == []
    assert alive_at_conv1 == [[False] * len(held)]
    params = model.parameters()
    for i, p in enumerate(params):
        assert p.grad.shape == p.data.shape and p.grad.dtype == p.data.dtype, p.name
        for q in params[i + 1:]:
            assert not np.shares_memory(p.grad, q.grad), (p.name, q.name)


def test_the_first_conv_layer_computes_no_input_gradient(monkeypatch):
    # the model's input needs no gradient: of the two conv layers only conv2
    # scatters columns back into an input gradient, once per chunk
    model = build_model(parse_model_spec("small_convnet:3x8x8-10"), np.random.default_rng(8))
    x = np.random.default_rng(9).random((CONV_CHUNK + 1, 3, 8, 8)).astype(np.float32)
    scattered = []
    real_col2im = dstforge.tensor._col2im

    def counting_col2im(dcols, dx, kh, kw):
        scattered.append(dx.shape[1])
        real_col2im(dcols, dx, kh, kw)

    monkeypatch.setattr(dstforge.tensor, "_col2im", counting_col2im)
    step_gradients(model, x, np.arange(CONV_CHUNK + 1) % 10)
    assert scattered == [32, 32]  # conv2's input channels, two chunks


def _step_by_hand(model, x, labels):
    """A step's gradients composed from the kernels op by op, with each relu
    masked by its own input, the pre-activation. `backward` masks by the
    relu's output, the next layer's input, which is above zero exactly where
    the pre-activation is. Returns the gradients by parameter name."""
    stages, h = [], x  # (layer, input, pool input or None, output before relu)
    for layer in model.layers:
        if layer.kind == "conv":
            conv = conv2d_forward(h, layer.weight, layer.bias)
            out = maxpool2x2(conv)
        else:
            conv, h = None, h.reshape(len(h), -1)
            out = linear_forward(h, layer.weight, layer.bias)
        stages.append((layer, h, conv, out))
        h = np.maximum(out, 0)
    _, dy = softmax_cross_entropy(out, labels)
    for i in reversed(range(len(stages))):
        layer, inp, conv, out = stages[i]
        if i < len(stages) - 1:
            dy = dy.reshape(out.shape) * (out > 0)
        if conv is not None:
            dy = _conv2d_backward(inp, layer.weight, layer.bias,
                                  _maxpool2x2_backward(_pool_routes(conv, out), dy), i > 0)
        else:
            dy = _linear_backward(inp, layer.weight, layer.bias, dy, i > 0)
    return {p.name: p.grad for p in model.parameters()}


@pytest.mark.parametrize("spec, x_shape", [
    ("mlp:36-16-12-10", (7, 36)),
    ("mlp:144-16-10", (5, 1, 12, 12)),
    ("small_convnet:3x8x8-10", (2 * CONV_CHUNK + 1, 3, 8, 8)),
])
def test_backward_is_byte_equal_to_the_step_composed_by_hand(spec, x_shape):
    model = build_model(parse_model_spec(spec), np.random.default_rng(6))
    rng = np.random.default_rng(7)
    x = rng.random(x_shape).astype(np.float32)
    labels = rng.integers(0, 10, x_shape[0])
    want = _step_by_hand(model, x, labels)
    step_gradients(model, x, labels)
    for p in model.parameters():
        assert p.grad.dtype == want[p.name].dtype
        assert p.grad.tobytes() == want[p.name].tobytes(), p.name


def test_linear_mlp_gradients_match_finite_differences():
    r = np.random.default_rng(7)
    x = r.standard_normal((4, 6)).astype(np.float64)
    labels = np.array([0, 1, 2, 1])
    model = layer_stack((r.standard_normal((5, 6)) * 0.5, r.standard_normal(5) * 0.1),
                        (r.standard_normal((3, 5)) * 0.5, r.standard_normal(3) * 0.1))
    check_param_grads(model, x, labels)


def test_conv_net_gradients_match_finite_differences():
    # Seed picked so every relu input and pool winner-vs-runner-up gap
    # clears 0.03: the difference bracket never crosses a switch.
    r = np.random.default_rng(164)
    x = r.standard_normal((2, 1, 6, 6)).astype(np.float64)
    labels = np.array([1, 0])
    model = layer_stack((r.standard_normal((3, 1, 3, 3)) * 0.4, r.standard_normal(3) * 0.1),
                        (r.standard_normal((2, 27)) * 0.4, r.standard_normal(2) * 0.1))
    check_param_grads(model, x, labels)


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=0, max_value=10_000))
def test_random_small_net_gradients(seed):
    for attempt in range(80):
        r = np.random.default_rng((seed, attempt))
        n_in = int(r.integers(2, 8))
        n_hid = int(r.integers(2, 8))
        n_out = int(r.integers(2, 5))
        bs = int(r.integers(1, 5))
        x = r.standard_normal((bs, n_in)).astype(np.float64)
        labels = r.integers(0, n_out, bs)
        w1, b1 = r.standard_normal((n_hid, n_in)) * 0.6, r.standard_normal(n_hid) * 0.1
        w2, b2 = r.standard_normal((n_out, n_hid)) * 0.6, r.standard_normal(n_out) * 0.1
        if relu_margin(x @ w1.T + b1) > MARGIN:
            break
    else:
        pytest.fail("no draw kept the relu inputs away from the switch")
    check_param_grads(layer_stack((w1, b1), (w2, b2)), x, labels)


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 7), st.integers(1, 7),
       st.integers(0, 2**32 - 1))
def test_conv_gradients_match_finite_differences_over_kernel_shapes(c_in, c_out, h, w, seed):
    # sum(y * r) is linear in each of x, w and b, so central differences are
    # exact up to rounding: no relu or pool switch in the way. In float32 the
    # operands are small integers and the step is 1, so there is no rounding
    rng = np.random.default_rng(seed)
    for kh, kw, dtype in itertools.product(KERNEL_SIDES, KERNEL_SIDES, (np.float32, np.float64)):
        x, wd, bd, r = _conv_operands(rng, dtype, (2, c_in, h, w), (c_out, c_in, kh, kw),
                                      (c_out,), (2, c_out, h, w))
        wt, b = Parameter(wd, name="w"), Parameter(bd, name="b")
        dx = _conv2d_backward(x, wt, b, r, True)  # the gradient of sum(y * r)

        def loss():
            return float(np.sum(conv2d_forward(x, wt, b) * r))

        eps = 1e-3 if dtype == np.float64 else 1.0
        for grad, arr in ((dx, x), (wt.grad, wt.data), (b.grad, b.data)):
            assert grad.dtype == dtype
            np.testing.assert_allclose(grad, numeric_grad(loss, arr, eps=eps),
                                       rtol=1e-7, atol=1e-9)


def test_forward_without_a_tape_leaves_the_gradients():
    model = build_model(parse_model_spec("small_convnet:1x8x8-10"), np.random.default_rng(0))
    x = np.random.default_rng(1).random((2, 1, 8, 8)).astype(np.float32)
    sentinels = [np.full_like(p.data, 7.0) for p in model.parameters()]
    for p, g in zip(model.parameters(), sentinels):
        p.grad = g
    assert model.forward(x).shape == (2, 10)
    for p, g in zip(model.parameters(), sentinels):
        assert p.grad is g and np.all(g == 7.0)
    step_gradients(model, x, np.array([0, 1]))
    for p, g in zip(model.parameters(), sentinels):
        assert p.grad is not None and p.grad is not g


def test_untraced_layer_kernels_match_the_traced_ones():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2, 3, 6, 6)).astype(np.float32)
    w = Parameter(rng.standard_normal((4, 3, 3, 3)).astype(np.float32), name="w")
    b = Parameter(rng.standard_normal(4).astype(np.float32), name="b")
    fw = Parameter(rng.standard_normal((5, 108)).astype(np.float32), name="fw")
    fb = Parameter(rng.standard_normal(5).astype(np.float32), name="fb")
    # relu'd like every pool input of the models: zeros and rounded ties
    pooled = np.maximum(np.round(rng.standard_normal((2, 3, 6, 6)) * 2), 0).astype(np.float32)
    # inference calls the arithmetic forms on the layers' arrays
    flat = x.reshape(2, -1)
    for got, want in ((_conv2d(x, w.data, b.data), conv2d_forward(x, w, b)),
                      (_linear(flat, fw.data, fb.data), linear_forward(flat, fw, fb)),
                      (_pool_max(pooled), maxpool2x2(pooled))):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    with pytest.raises(ValueError):
        _pool_max(np.ones((1, 1, 3, 4), dtype=np.float32))


def test_linear_backward_skips_the_input_gradient_nobody_reads():
    # the first layer's weight counts the matrix products it takes part in;
    # its input needs no gradient, so backward's only products there are
    # dW = dy.T @ x, which does not touch the weight
    class CountingMatmul(np.ndarray):
        calls = 0

        def __matmul__(self, other):
            CountingMatmul.calls += 1
            return np.asarray(self) @ other

        def __rmatmul__(self, other):
            CountingMatmul.calls += 1
            return other @ np.asarray(self)

    r = np.random.default_rng(11)
    x = r.standard_normal((5, 6)).astype(np.float32)
    labels = np.array([0, 2, 1, 2, 1])
    w1, b1, w2, b2 = (r.standard_normal(s).astype(np.float32) for s in ((4, 6), (4,), (3, 4), (3,)))
    model = layer_stack((w1, b1), (w2, b2))
    fc1 = model.layers[0]
    fc1.weight.data = fc1.weight.data.view(CountingMatmul)
    tape = []
    _, dlogits = softmax_cross_entropy(model.forward(x, tape), labels)
    CountingMatmul.calls = 0
    backward(model.layers, tape, dlogits)
    assert CountingMatmul.calls == 0
    assert type(fc1.weight.grad) is np.ndarray

    # asked for dx, the same layer runs one product more, dx = dy @ w, and
    # writes the same gradients
    dy = r.standard_normal((5, 4)).astype(np.float32)
    runs = []
    for need_dx in (False, True):
        CountingMatmul.calls = 0
        dx = _linear_backward(x, fc1.weight, fc1.bias, dy, need_dx)
        runs.append((CountingMatmul.calls, dx, fc1.weight.grad, fc1.bias.grad))
    (products, dx, w_grad, b_grad), (products_wanted, dx_wanted, w_wanted, b_wanted) = runs
    assert products == 0 and dx is None
    assert products_wanted == 1 and dx_wanted.shape == x.shape
    for got, want in ((w_grad, w_wanted), (b_grad, b_wanted)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
