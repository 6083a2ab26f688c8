"""Autograd core: forward anchors, gradient checks, graph discipline."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MARGIN, check_param_grads, numeric_grad, relu_margin

import dstforge.tensor
from dstforge.models import build_model, parse_model_spec
from dstforge.tensor import (
    CONV_CHUNK,
    GraphError,
    Parameter,
    Tensor,
    backward,
    conv2d_forward,
    flatten,
    layer_kernels,
    linear_forward,
    maxpool2x2,
    no_grad,
    relu,
    softmax_cross_entropy,
)


def test_linear_forward_anchor():
    x = Tensor(np.array([[1.0, 1.0]], dtype=np.float32))
    w = Parameter(np.array([[2.0, 3.0]], dtype=np.float32), name="w")
    b = Parameter(np.array([1.0], dtype=np.float32), name="b")
    y = linear_forward(x, w, b)
    assert y.data.shape == (1, 1)
    assert y.data[0, 0] == pytest.approx(6.0)


def test_conv_forward_anchor():
    # a 3x3 window of ones over a zero-padded 3x3 image of ones counts the
    # image pixels it covers
    x = Tensor(np.ones((1, 1, 3, 3), dtype=np.float32))
    w = Parameter(np.ones((1, 1, 3, 3), dtype=np.float32), name="w")
    b = Parameter(np.zeros(1, dtype=np.float32), name="b")
    y = conv2d_forward(x, w, b)
    np.testing.assert_array_equal(y.data[0, 0], [[4.0, 6.0, 4.0], [6.0, 9.0, 6.0], [4.0, 6.0, 4.0]])


def test_conv_padding_shape():
    x = Tensor(np.ones((2, 3, 8, 8), dtype=np.float32))
    for kh, kw in ((3, 3), (1, 5), (5, 1)):
        w = Parameter(np.ones((5, 3, kh, kw), dtype=np.float32), name="w")
        b = Parameter(np.zeros(5, dtype=np.float32), name="b")
        assert conv2d_forward(x, w, b).data.shape == (2, 5, 8, 8)


def test_conv_rejects_an_even_kernel():
    x = Tensor(np.ones((1, 1, 4, 4), dtype=np.float32))
    b = Parameter(np.zeros(1, dtype=np.float32), name="b")
    for kh, kw in ((2, 2), (2, 3), (3, 2), (3, 4)):
        w = Parameter(np.ones((1, 1, kh, kw), dtype=np.float32), name="w")
        with pytest.raises(ValueError, match="odd kernel"):
            conv2d_forward(x, w, b)


def test_cross_entropy_anchor():
    logits = Tensor(np.array([[1.0, 2.0, 3.0]], dtype=np.float32))
    loss = softmax_cross_entropy(logits, np.array([2]))
    assert float(loss.data) == pytest.approx(0.40761, abs=1e-5)


def test_cross_entropy_uniform_logits():
    for c in (2, 5, 10):
        logits = Tensor(np.zeros((4, c), dtype=np.float32))
        loss = softmax_cross_entropy(logits, np.zeros(4, dtype=np.int64))
        assert float(loss.data) == pytest.approx(np.log(c), rel=1e-6)


def test_cross_entropy_rejects_bad_labels():
    logits = Tensor(np.zeros((2, 3), dtype=np.float32))
    with pytest.raises(ValueError):
        softmax_cross_entropy(logits, np.array([0, 3]))
    with pytest.raises(ValueError):
        softmax_cross_entropy(logits, np.array([-1, 0]))


def test_relu_forward():
    y = relu(Tensor(np.array([[-1.0, 0.0, 2.0]], dtype=np.float32)))
    np.testing.assert_array_equal(y.data, [[0.0, 0.0, 2.0]])


def test_maxpool_requires_even_dims():
    x = Tensor(np.ones((1, 1, 3, 4), dtype=np.float32))
    with pytest.raises(ValueError):
        maxpool2x2(x)


def test_maxpool_forward():
    x = Tensor(np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4))
    y = maxpool2x2(x)
    np.testing.assert_array_equal(y.data[0, 0], [[5.0, 7.0], [13.0, 15.0]])


def _pool_oracle(a: np.ndarray, dy: np.ndarray):
    """maxpool2x2 by a loop over windows: each takes the first of its maxima
    in row-major order, which alone receives dy; every other position +0.0."""
    y, dx = np.empty_like(dy), np.zeros_like(a)
    for b, c, i, j in np.ndindex(*dy.shape):
        win = a[b, c, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
        r, s = next((r, s) for r in range(2) for s in range(2) if win[r, s] == win.max())
        y[b, c, i, j] = win[r, s]
        dx[b, c, 2 * i + r, 2 * j + s] = dy[b, c, i, j]
    return y, dx


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 4), st.integers(1, 4),
       st.sampled_from([np.float32, np.float64]),
       st.sampled_from(["ints", "relu", "zero_windows"]), st.integers(0, 2**32 - 1))
def test_maxpool_matches_a_window_loop_bytewise(n, c, oh, ow, dtype, inputs, seed):
    rng = np.random.default_rng(seed)
    shape = (n, c, 2 * oh, 2 * ow)
    if inputs == "ints":
        # one value per window, half the positions redrawn: ties of two to four
        a = rng.integers(-2, 3, (n, c, oh, ow)).repeat(2, axis=2).repeat(2, axis=3)
        redraw = rng.random(shape) < 0.5
        a[redraw] = rng.integers(-2, 3, int(redraw.sum()))
    else:
        a = np.maximum(rng.standard_normal(shape), 0.0)
        if inputs == "zero_windows":
            a[(rng.random((n, c, oh, ow)) < 0.5).repeat(2, axis=2).repeat(2, axis=3)] = 0.0
    a = a.astype(dtype)
    dy = rng.standard_normal((n, c, oh, ow)).astype(dtype)
    dy[rng.random(dy.shape) < 0.2] = -0.0
    want_y, want_dx = _pool_oracle(a, dy)

    x = Tensor(a, requires_grad=True)
    y = maxpool2x2(x)
    y._grad_fn(dy)
    assert y.data.dtype == x.grad.dtype == dtype
    assert y.data.tobytes() == want_y.tobytes()
    assert x.grad.tobytes() == want_dx.tobytes()
    for odd in (a[:, :, 1:], a[:, :, :, 1:]):
        with pytest.raises(ValueError):
            maxpool2x2(Tensor(odd))


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
       st.sampled_from([np.float32, np.float64]), st.integers(0, 2**32 - 1))
def test_pool_then_relu_equals_relu_then_pool(n, c_out, oh, ow, dtype, seed):
    # small integer inputs, kernels and biases make conv outputs with ties,
    # exact zeros and negatives, and whole windows at or below zero
    rng = np.random.default_rng(seed)
    x = Tensor(rng.integers(-1, 2, (n, 2, 2 * oh, 2 * ow)).astype(dtype))
    w = Parameter(rng.integers(-1, 2, (c_out, 2, 3, 3)).astype(dtype), name="w")
    b = Parameter(rng.integers(-1, 2, c_out).astype(dtype), name="b")
    y = conv2d_forward(x, w, b).data
    dy = rng.standard_normal((n, c_out, oh, ow)).astype(dtype)
    dy[rng.random(dy.shape) < 0.2] = -0.0

    grads = []
    for first, second in ((maxpool2x2, relu), (relu, maxpool2x2)):
        leaf = Tensor(y, requires_grad=True)
        mid = first(leaf)
        out = second(mid)
        out._grad_fn(dy)
        mid._grad_fn(mid.grad)
        grads.append((out.data, leaf.grad))
    (pool_relu, d_pool_relu), (relu_pool, d_relu_pool) = grads
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
        got = conv2d_forward(Tensor(x), Parameter(wt, name="w"), Parameter(b, name="b"))
        assert got.data.dtype == dtype
        np.testing.assert_allclose(got.data, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("pw", [1, 2])
@pytest.mark.parametrize("ph", [0, 1, 2])
def test_chunked_conv_matches_the_whole_batch_arithmetic_bytewise(ph, pw):
    # a (2*ph + 1) x (2*pw + 1) kernel, padded by (ph, pw); an uneven last
    # chunk; the reference builds every image's columns at once, sums dW
    # over the batch axis and scatters dx in one pass
    n, c_in, c_out, kh, kw, h, w = 2 * CONV_CHUNK + 3, 3, 5, 2 * ph + 1, 2 * pw + 1, 7, 6
    rng = np.random.default_rng(17)
    x = Tensor(rng.standard_normal((n, c_in, h, w)).astype(np.float32), requires_grad=True)
    wt = Parameter(rng.standard_normal((c_out, c_in, kh, kw)).astype(np.float32), name="w")
    b = Parameter(rng.standard_normal(c_out).astype(np.float32), name="b")
    y = conv2d_forward(x, wt, b)
    assert y.shape == (n, c_out, h, w)
    dy = rng.standard_normal(y.shape).astype(np.float32)
    y._grad_fn(dy)

    cols = dstforge.tensor._im2col(x.data, kh, kw)
    wmat = wt.data.reshape(c_out, -1)
    want_y = np.matmul(wmat, cols)
    want_y += b.data.reshape(1, c_out, 1)
    dymat = dy.reshape(n, c_out, h * w)
    want_dw = np.matmul(dymat, cols.transpose(0, 2, 1)).sum(axis=0).reshape(wt.data.shape)
    want_dx = np.zeros_like(x.data)
    dstforge.tensor._col2im(np.matmul(wmat.T, dymat), want_dx, kh, kw)
    for got, want in ((y.data, want_y.reshape(y.shape)), (wt.grad, want_dw),
                      (b.grad, dy.sum(axis=(0, 2, 3))), (x.grad, want_dx)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_conv_backward_allocates_less_than_the_full_batch_columns():
    # conv2 of the small convnet at batch 20: its im2col columns for the
    # whole batch would take 20*288*256*4 bytes; backward rebuilds them one
    # chunk at a time instead
    rng = np.random.default_rng(8)
    n = 20
    x = Tensor(rng.standard_normal((n, 32, 16, 16)).astype(np.float32), requires_grad=True)
    w = Parameter(rng.standard_normal((64, 32, 3, 3)).astype(np.float32), name="w")
    b = Parameter(np.zeros(64, dtype=np.float32), name="b")
    y = conv2d_forward(x, w, b)
    dy = rng.standard_normal(y.shape).astype(np.float32)
    tracemalloc.start()
    try:
        y._grad_fn(dy)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert x.grad is not None and w.grad is not None
    assert peak < n * 288 * 256 * 4


def test_flatten_shape():
    x = Tensor(np.ones((3, 2, 4, 4), dtype=np.float32))
    assert flatten(x).data.shape == (3, 32)


def test_graph_reuse_raises():
    x = Tensor(np.zeros((1, 2), dtype=np.float32))
    w = Parameter(np.zeros((3, 2), dtype=np.float32), name="w")
    b = Parameter(np.zeros(3, dtype=np.float32), name="b")
    y = linear_forward(x, w, b)
    loss = softmax_cross_entropy(y, np.array([0]))
    backward(loss)
    with pytest.raises(GraphError):
        backward(loss)


def test_backward_keeps_only_the_leaf_gradients():
    r = np.random.default_rng(4)
    x = Tensor(r.standard_normal((2, 1, 4, 4)).astype(np.float32))
    cw = Parameter(r.standard_normal((3, 1, 3, 3)).astype(np.float32), name="cw")
    cb = Parameter(np.zeros(3, dtype=np.float32), name="cb")
    fw = Parameter(r.standard_normal((5, 12)).astype(np.float32), name="fw")
    fb = Parameter(np.zeros(5, dtype=np.float32), name="fb")
    conv = conv2d_forward(x, cw, cb)
    pooled = maxpool2x2(conv)
    act = relu(pooled)
    flat = flatten(act)
    logits = linear_forward(flat, fw, fb)
    loss = softmax_cross_entropy(logits, np.array([0, 4]))
    backward(loss)
    for p in (cw, cb, fw, fb):
        assert p.grad is not None and p.grad.shape == p.data.shape, p.name
    # the graph is released: no interior node keeps a closure or its parents
    for node in (conv, pooled, act, flat, logits, loss):
        assert node.grad is None and node._grad_fn is None and node._parents == ()
    assert x.grad is None  # a leaf that needs no gradient gets none
    with pytest.raises(GraphError):
        backward(loss)
    with pytest.raises(GraphError):  # also from a fresh root over a consumed node
        backward(softmax_cross_entropy(linear_forward(flat, fw, fb), np.array([1, 2])))
    assert all(p.grad is not None for p in (cw, cb, fw, fb))


def test_linear_mlp_gradients_match_finite_differences():
    r = np.random.default_rng(7)
    x = r.standard_normal((4, 6)).astype(np.float64)
    labels = np.array([0, 1, 2, 1])
    w1 = Parameter(r.standard_normal((5, 6)) * 0.5, name="w1")
    b1 = Parameter(r.standard_normal(5) * 0.1, name="b1")
    w2 = Parameter(r.standard_normal((3, 5)) * 0.5, name="w2")
    b2 = Parameter(r.standard_normal(3) * 0.1, name="b2")

    def forward_loss():
        h = relu(linear_forward(Tensor(x), w1, b1))
        return softmax_cross_entropy(linear_forward(h, w2, b2), labels)

    check_param_grads([w1, b1, w2, b2], forward_loss)


def test_conv_net_gradients_match_finite_differences():
    # Seed picked so every relu input and pool winner-vs-runner-up gap
    # clears 0.03: the difference bracket never crosses a switch.
    r = np.random.default_rng(164)
    x = r.standard_normal((2, 1, 6, 6)).astype(np.float64)
    labels = np.array([1, 0])
    w1 = Parameter(r.standard_normal((3, 1, 3, 3)) * 0.4, name="w1")
    b1 = Parameter(r.standard_normal(3) * 0.1, name="b1")
    w2 = Parameter(r.standard_normal((2, 27)) * 0.4, name="w2")
    b2 = Parameter(r.standard_normal(2) * 0.1, name="b2")

    def forward_loss():
        h = maxpool2x2(relu(conv2d_forward(Tensor(x), w1, b1)))
        return softmax_cross_entropy(linear_forward(flatten(h), w2, b2), labels)

    check_param_grads([w1, b1, w2, b2], forward_loss)


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
        w1 = Parameter(r.standard_normal((n_hid, n_in)) * 0.6, name="w1")
        b1 = Parameter(r.standard_normal(n_hid) * 0.1, name="b1")
        w2 = Parameter(r.standard_normal((n_out, n_hid)) * 0.6, name="w2")
        b2 = Parameter(r.standard_normal(n_out) * 0.1, name="b2")
        if relu_margin(x @ w1.data.T + b1.data) > MARGIN:
            break
    else:
        pytest.fail("no draw kept the relu inputs away from the switch")

    def forward_loss():
        h = relu(linear_forward(Tensor(x), w1, b1))
        return softmax_cross_entropy(linear_forward(h, w2, b2), labels)

    check_param_grads([w1, b1, w2, b2], forward_loss)


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 7), st.integers(1, 7),
       st.integers(0, 2**32 - 1))
def test_conv_gradients_match_finite_differences_over_kernel_shapes(c_in, c_out, h, w, seed):
    # sum(y * r) is linear in each of x, w and b, so central differences are
    # exact up to rounding: no relu or pool switch in the way. In float32 the
    # operands are small integers and the step is 1, so there is no rounding
    rng = np.random.default_rng(seed)
    for kh, kw, dtype in itertools.product(KERNEL_SIDES, KERNEL_SIDES, (np.float32, np.float64)):
        xd, wd, bd, r = _conv_operands(rng, dtype, (2, c_in, h, w), (c_out, c_in, kh, kw),
                                       (c_out,), (2, c_out, h, w))
        x = Tensor(xd, requires_grad=True)
        wt, b = Parameter(wd, name="w"), Parameter(bd, name="b")
        conv2d_forward(x, wt, b)._grad_fn(r)  # the gradient of sum(y * r)

        def loss():
            return float(np.sum(conv2d_forward(x, wt, b).data * r))

        eps = 1e-3 if dtype == np.float64 else 1.0
        for t in (x, wt, b):
            assert t.grad.dtype == dtype
            np.testing.assert_allclose(t.grad, numeric_grad(loss, t.data, eps=eps),
                                       rtol=1e-7, atol=1e-9)


def test_no_grad_builds_no_graph_and_restores_grad_mode():
    model = build_model(parse_model_spec("small_convnet:1x8x8-10"), np.random.default_rng(0))
    x = Tensor(np.random.default_rng(1).random((2, 1, 8, 8)).astype(np.float32))
    sentinels = [np.full_like(p.data, 7.0) for p in model.parameters()]
    for p, g in zip(model.parameters(), sentinels):
        p.grad = g
    with no_grad():
        out = model.forward(x)
    assert out._parents == () and out._grad_fn is None
    assert not out.requires_grad
    for p, g in zip(model.parameters(), sentinels):
        assert p.grad is g and np.all(g == 7.0)

    with pytest.raises(KeyError):
        with no_grad():
            raise KeyError("inside the block")
    model.zero_grad()
    backward(softmax_cross_entropy(model.forward(x), np.array([0, 1])))
    assert all(p.grad is not None for p in model.parameters())


def test_layer_kernels_under_no_grad_match_the_graph_ops():
    rng = np.random.default_rng(3)
    x = Tensor(rng.standard_normal((2, 3, 6, 6)).astype(np.float32))
    w = Parameter(rng.standard_normal((4, 3, 3, 3)).astype(np.float32), name="w")
    b = Parameter(rng.standard_normal(4).astype(np.float32), name="b")
    fw = Parameter(rng.standard_normal((5, 108)).astype(np.float32), name="fw")
    fb = Parameter(rng.standard_normal(5).astype(np.float32), name="fb")
    # relu'd like every pool input of the models: zeros and rounded ties
    pooled = relu(Tensor(np.round(rng.standard_normal((2, 3, 6, 6)) * 2).astype(np.float32)))
    assert layer_kernels() == (linear_forward, conv2d_forward, maxpool2x2)
    with no_grad():
        linear, conv2d, maxpool = layer_kernels()
        assert maxpool is not maxpool2x2
        for got, want in ((conv2d(x, w, b), conv2d_forward(x, w, b)),
                          (linear(flatten(x), fw, fb), linear_forward(flatten(x), fw, fb)),
                          (maxpool(pooled), maxpool2x2(pooled))):
            assert not got.requires_grad and got._parents == ()
            assert got.data.dtype == want.data.dtype
            assert got.data.tobytes() == want.data.tobytes()
        with pytest.raises(ValueError):
            maxpool(Tensor(np.ones((1, 1, 3, 4), dtype=np.float32)))


def test_a_parameter_shared_by_two_layers_sums_both_gradients():
    # w feeds both linear layers, so its gradient is the sum of two
    # contributions; the first one is stored without a copy and the second
    # is added into it in place
    r = np.random.default_rng(5)
    x = r.standard_normal((3, 4))
    labels = np.array([0, 3, 1])
    w = Parameter(r.standard_normal((4, 4)) * 0.5, name="w")
    b1 = Parameter(r.standard_normal(4) * 0.1, name="b1")
    b2 = Parameter(r.standard_normal(4) * 0.1, name="b2")

    def forward_loss():
        h = linear_forward(Tensor(x), w, b1)
        return softmax_cross_entropy(linear_forward(h, w, b2), labels)

    backward(forward_loss())
    params = (w, b1, b2)
    for i, p in enumerate(params):
        for q in params[i + 1:]:
            assert not np.shares_memory(p.grad, q.grad), (p.name, q.name)
    for p in params:
        numeric = numeric_grad(lambda: float(forward_loss().data), p.data, eps=1e-6)
        np.testing.assert_allclose(p.grad, numeric, rtol=1e-6, atol=1e-9, err_msg=p.name)


def test_linear_backward_skips_the_input_gradient_nobody_reads():
    # the weight's data counts the matrix products it takes part in; with a
    # gradient-free input, backward's only products are dW = dy.T @ x, which
    # does not touch the weight, so it runs none with the weight
    class CountingMatmul(np.ndarray):
        calls = 0

        def __matmul__(self, other):
            CountingMatmul.calls += 1
            return np.asarray(self) @ other

        def __rmatmul__(self, other):
            CountingMatmul.calls += 1
            return other @ np.asarray(self)

    r = np.random.default_rng(11)
    x_data = r.standard_normal((5, 6)).astype(np.float32)
    w_data = r.standard_normal((4, 6)).astype(np.float32)
    b_data = r.standard_normal(4).astype(np.float32)
    labels = np.array([0, 3, 1, 2, 3])

    def step(x_requires_grad):
        x = Tensor(x_data, requires_grad=x_requires_grad)
        w, b = Parameter(w_data.copy(), name="w"), Parameter(b_data.copy(), name="b")
        w.data = w.data.view(CountingMatmul)
        loss = softmax_cross_entropy(linear_forward(x, w, b), labels)
        CountingMatmul.calls = 0
        backward(loss)
        return x, w, b, CountingMatmul.calls

    x, w, b, products = step(False)
    assert products == 0
    assert x.grad is None
    x_wanted, w_wanted, b_wanted, products_wanted = step(True)
    assert products_wanted == 1  # dx = dy @ w
    assert x_wanted.grad.shape == x_data.shape
    for got, want in ((w.grad, w_wanted.grad), (b.grad, b_wanted.grad)):
        assert type(got) is np.ndarray and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
