"""SGD momentum semantics and learning-rate schedules."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dstforge.optim import LrSchedule, lr_at, sgd_momentum_step
from dstforge.tensor import Parameter


def test_momentum_accumulates_to_1_9g_after_two_steps():
    p = Parameter(np.zeros(3, dtype=np.float32), name="w")
    g = np.array([1.0, -2.0, 0.5], dtype=np.float32)
    p.grad = g.copy()
    sgd_momentum_step([p], lr=0.1, momentum=0.9)
    p.grad = g.copy()
    sgd_momentum_step([p], lr=0.1, momentum=0.9)
    np.testing.assert_allclose(p.momentum, 1.9 * g, rtol=1e-6)
    # w = -lr*(v1 + v2) = -0.1*(1.0 + 1.9)*g
    np.testing.assert_allclose(p.data, -0.29 * g, rtol=1e-6)


def test_weight_decay_is_coupled():
    p = Parameter(np.array([2.0], dtype=np.float32), name="w")
    p.grad = np.array([0.0], dtype=np.float32)
    sgd_momentum_step([p], lr=0.5, momentum=0.0, weight_decay=0.1)
    # v = g + wd*w = 0.2; w <- 2.0 - 0.5*0.2
    assert p.data[0] == pytest.approx(1.9)


def test_missing_grad_raises():
    p = Parameter(np.zeros(2, dtype=np.float32), name="orphan")
    with pytest.raises(ValueError, match="orphan"):
        sgd_momentum_step([p], lr=0.1)


def test_step_schedule_anchor():
    # base 0.1, decaying by 10x every 30 epochs: epoch 35 sits in the second
    # plateau, so the rate is 0.01.
    s = LrSchedule(kind="step", base_lr=0.1, total_steps=100_000, steps_per_epoch=500)
    assert lr_at(s, 35 * 500) == pytest.approx(0.01)
    assert lr_at(s, 0) == pytest.approx(0.1)
    assert lr_at(s, 29 * 500) == pytest.approx(0.1)
    assert lr_at(s, 30 * 500) == pytest.approx(0.01)
    assert lr_at(s, 60 * 500) == pytest.approx(0.001)


def test_cosine_schedule_endpoints_and_midpoint():
    s = LrSchedule(kind="cosine", base_lr=0.2, total_steps=1000)
    assert lr_at(s, 0) == pytest.approx(0.2)
    assert lr_at(s, 500) == pytest.approx(0.1)
    assert lr_at(s, 1000) == pytest.approx(0.0, abs=1e-12)


def test_lr_at_range_checked():
    s = LrSchedule(kind="cosine", base_lr=0.1, total_steps=10)
    with pytest.raises(ValueError):
        lr_at(s, -1)
    with pytest.raises(ValueError):
        lr_at(s, 11)


def test_schedule_validation():
    with pytest.raises(ValueError):
        LrSchedule(kind="linear", base_lr=0.1, total_steps=10)
    with pytest.raises(ValueError):
        LrSchedule(kind="step", base_lr=0.1, total_steps=10)  # no steps_per_epoch
    with pytest.raises(ValueError):
        LrSchedule(kind="cosine", base_lr=0.1, total_steps=0)


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=1, max_value=5000), st.integers(min_value=0, max_value=5000))
def test_cosine_monotone_nonincreasing(total, step):
    step = min(step, total - 1)
    s = LrSchedule(kind="cosine", base_lr=0.1, total_steps=total)
    assert lr_at(s, step) >= lr_at(s, step + 1) - 1e-15
    assert 0.0 <= lr_at(s, step) <= 0.1 + 1e-15


def test_momentum_matches_reference_loop():
    r = np.random.default_rng(3)
    p = Parameter(r.standard_normal(8).astype(np.float32), name="w")
    w_ref = p.data.copy().astype(np.float64)
    v_ref = np.zeros(8)
    mu, lr, wd = 0.9, 0.05, 0.01
    for i in range(5):
        g = r.standard_normal(8).astype(np.float32)
        p.grad = g.copy()
        sgd_momentum_step([p], lr=lr, momentum=mu, weight_decay=wd)
        v_ref = mu * v_ref + (g + wd * w_ref)
        w_ref = w_ref - lr * v_ref
    np.testing.assert_allclose(p.data, w_ref.astype(np.float32), rtol=2e-4)


def test_schedule_works_with_math_pi():
    s = LrSchedule(kind="cosine", base_lr=1.0, total_steps=4)
    assert lr_at(s, 1) == pytest.approx(0.5 * (1 + math.cos(math.pi / 4)))


def _out_of_place_step(w, v, g, lr, momentum, weight_decay):
    """The SGD step written with a fresh array per operation."""
    t = w.dtype.type
    if weight_decay:
        g = g + t(weight_decay) * w
    v = v * t(momentum) + g
    return w - t(lr) * v, v


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("weight_decay", [0.0, 5e-4])
def test_in_place_step_is_byte_equal_to_the_out_of_place_formula(dtype, weight_decay):
    rng = np.random.default_rng(11)
    p = Parameter(rng.standard_normal((7, 5)).astype(dtype), name="w")
    w, v = p.data.copy(), p.momentum.copy()
    data, momentum = p.data, p.momentum
    for step in range(4):
        g = rng.standard_normal(p.data.shape).astype(dtype)
        g_before = g.copy()
        p.grad = g
        sgd_momentum_step([p], lr=0.05 + 0.01 * step, momentum=0.9, weight_decay=weight_decay)
        w, v = _out_of_place_step(w, v, g_before, 0.05 + 0.01 * step, 0.9, weight_decay)
        assert p.grad is g and g.tobytes() == g_before.tobytes()
        assert p.data is data and p.momentum is momentum  # updated in place
        assert p.data.dtype == p.momentum.dtype == dtype
        assert p.data.tobytes() == w.tobytes()
        assert p.momentum.tobytes() == v.tobytes()
