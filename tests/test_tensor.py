"""Autograd core: forward anchors, gradient checks, graph discipline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MARGIN, check_param_grads, relu_margin

from dstforge.models import build_small_convnet
from dstforge.tensor import (
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
    x = Tensor(np.ones((1, 1, 3, 3), dtype=np.float32))
    w = Parameter(np.ones((1, 1, 3, 3), dtype=np.float32), name="w")
    b = Parameter(np.zeros(1, dtype=np.float32), name="b")
    y = conv2d_forward(x, w, b)
    assert y.data.shape == (1, 1, 1, 1)
    assert y.data[0, 0, 0, 0] == pytest.approx(9.0)


def test_conv_padding_shape():
    x = Tensor(np.ones((2, 3, 8, 8), dtype=np.float32))
    w = Parameter(np.ones((5, 3, 3, 3), dtype=np.float32), name="w")
    b = Parameter(np.zeros(5, dtype=np.float32), name="b")
    y = conv2d_forward(x, w, b, padding=1)
    assert y.data.shape == (2, 5, 8, 8)


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
        h = maxpool2x2(relu(conv2d_forward(Tensor(x), w1, b1, padding=1)))
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


def test_conv_stride_two():
    x = Tensor(np.ones((1, 1, 5, 5), dtype=np.float32))
    w = Parameter(np.ones((1, 1, 3, 3), dtype=np.float32), name="w")
    b = Parameter(np.zeros(1, dtype=np.float32), name="b")
    y = conv2d_forward(x, w, b, stride=2)
    assert y.data.shape == (1, 1, 2, 2)
    assert np.all(y.data == 9.0)


def test_no_grad_builds_no_graph_and_restores_grad_mode():
    model = build_small_convnet((1, 8, 8), 10, np.random.default_rng(0))
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
    ties = Tensor(np.round(rng.random((2, 3, 6, 6)) * 3).astype(np.float32))
    assert layer_kernels() == (linear_forward, conv2d_forward, maxpool2x2)
    with no_grad():
        linear, conv2d, maxpool = layer_kernels()
        assert maxpool is not maxpool2x2
        for got, want in ((conv2d(x, w, b, padding=1), conv2d_forward(x, w, b, padding=1)),
                          (linear(flatten(x), fw, fb), linear_forward(flatten(x), fw, fb)),
                          (maxpool(ties), maxpool2x2(ties))):
            assert not got.requires_grad and got._parents == ()
            np.testing.assert_array_equal(got.data, want.data)
        with pytest.raises(ValueError):
            maxpool(Tensor(np.ones((1, 1, 3, 4), dtype=np.float32)))
