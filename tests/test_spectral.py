"""Fourier round trips, band attenuation, RA curves, and kernel heatmaps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dstforge.models import build_mlp, build_small_convnet
from dstforge.spectral import (
    KernelHeatmap,
    RACurve,
    attenuate,
    attenuate_images,
    dft2_centered,
    idft2,
    kernel_nonzero_counts,
    ra_curve,
    write_ra_curves_svg,
)
from dstforge.data import ImageSet


def rand_image(seed=0, c=1, h=16, w=16):
    return np.random.default_rng(seed).random((c, h, w)).astype(np.float32)


# --- transform core ---------------------------------------------------------


def test_round_trip_identity():
    img = rand_image(1)
    back = idft2(dft2_centered(img), clip=False)
    assert np.abs(back - img).max() <= 1e-5


def test_round_trip_odd_dims():
    img = rand_image(2, h=15, w=13)
    back = idft2(dft2_centered(img), clip=False)
    assert np.abs(back - img).max() <= 1e-5


def test_parseval_identity():
    # sum |x|^2 == sum |X|^2 / (h*w), both sides by direct summation
    img = rand_image(3).astype(np.float64)
    spec = dft2_centered(img)
    spatial = float((img ** 2).sum())
    freq = float((np.abs(spec.data) ** 2).sum()) / (img.shape[-2] * img.shape[-1])
    assert abs(spatial - freq) / spatial <= 1e-4


def test_constant_image_concentrates_at_dc():
    img = np.full((1, 8, 8), 0.5)
    spec = dft2_centered(img)
    mag = np.abs(spec.data[0])
    assert mag[4, 4] == pytest.approx(0.5 * 64)
    mag[4, 4] = 0.0
    assert mag.max() <= 1e-9


def test_attenuate_r0_is_identity_both_modes():
    img = rand_image(4)
    for mode in ("low", "high"):
        out = attenuate_images(img, mode, 0)
        np.testing.assert_allclose(out, img, atol=1e-5)


def test_low_r1_removes_only_dc():
    img = rand_image(5)
    spec = attenuate(dft2_centered(img), "low", 1)
    recon = idft2(spec, clip=False)
    # removing the DC bin alone zeroes the mean and nothing else
    assert abs(recon.mean()) <= 1e-7
    centered = img - img.mean(axis=(-2, -1), keepdims=True)
    np.testing.assert_allclose(recon, centered, atol=1e-5)


def test_high_mode_removes_far_bins_first():
    img = rand_image(6, h=8, w=8)
    spec = dft2_centered(img)
    out = attenuate(spec, "high", 1)
    d = np.minimum(np.hypot(*np.mgrid[-4:4, -4:4]), 4)
    assert np.all(out.data[0][d > 3] == 0.0)
    np.testing.assert_array_equal(out.data[0][d <= 3], spec.data[0][d <= 3])


def test_attenuate_validation():
    spec = dft2_centered(rand_image(7))
    with pytest.raises(ValueError):
        attenuate(spec, "band", 1)
    with pytest.raises(ValueError):
        attenuate(spec, "low", -1)
    with pytest.raises(ValueError):
        attenuate(spec, "low", 9)  # r_max = 8 for 16x16


def test_full_attenuation_blanks_image():
    img = rand_image(8)
    out_low = attenuate(dft2_centered(img), "low", 8)
    # removing d < 8 keeps only the clamped ring at r_max
    d = np.hypot(*np.mgrid[-8:8, -8:8][::-1])
    assert np.all(np.abs(out_low.data[0])[np.minimum(d, 8) < 8] == 0.0)
    out_high = attenuate(dft2_centered(img), "high", 8)
    # keep d <= 0: only the DC bin survives -> constant image
    recon = idft2(out_high, clip=False)
    assert np.ptp(recon) <= 1e-6


def test_dft_rejects_tiny_images():
    with pytest.raises(ValueError):
        dft2_centered(np.ones((3, 1, 5)))


@settings(deadline=None, max_examples=20)
@given(st.integers(min_value=0, max_value=1000), st.integers(min_value=0, max_value=6),
       st.sampled_from(["low", "high"]))
def test_attenuation_never_increases_energy(seed, r, mode):
    img = np.random.default_rng(seed).random((1, 12, 12))
    spec = dft2_centered(img)
    out = attenuate(spec, mode, r)
    assert (np.abs(out.data) ** 2).sum() <= (np.abs(spec.data) ** 2).sum() + 1e-9


# --- RA curves ---------------------------------------------------------------


def test_ra_curve_validation():
    with pytest.raises(ValueError):
        RACurve(mode="low", points=[(2, 0.5), (2, 0.4)])
    with pytest.raises(ValueError):
        RACurve(mode="low", points=[(1, 1.5)])


def test_ra_curve_on_toy_model():
    r = np.random.default_rng(0)
    imgs = r.random((40, 1, 12, 12)).astype(np.float32)
    labels = r.integers(0, 10, 40).astype(np.int64)
    s = ImageSet(images=imgs, labels=labels, name="toy")
    model = build_mlp((144, 16, 10), np.random.default_rng(1))
    curve = ra_curve(model, s, "low", (0, 2, 4))
    assert curve.mode == "low"
    assert [p[0] for p in curve.points] == [0, 2, 4]
    assert all(0.0 <= a <= 1.0 for _, a in curve.points)
    assert curve.model_id == "mlp:144-16-10"


def test_ra_curve_r0_equals_clean_accuracy():
    from dstforge.metrics import accuracy

    r = np.random.default_rng(3)
    imgs = r.random((30, 1, 12, 12)).astype(np.float32)
    labels = r.integers(0, 10, 30).astype(np.int64)
    s = ImageSet(images=imgs, labels=labels, name="toy")
    model = build_mlp((144, 16, 10), np.random.default_rng(1))
    curve = ra_curve(model, s, "high", (0, 3))
    assert curve.points[0][1] == pytest.approx(accuracy(model, s))


def test_ra_curve_csv(tmp_path):
    c = RACurve(mode="low", points=[(2, 0.5), (4, 0.25)], model_id="m")
    p = tmp_path / "ra.csv"
    c.write_csv(p)
    lines = p.read_text().splitlines()
    assert lines[0] == "mode,r,accuracy"
    assert lines[1] == "low,2,0.5"


def test_write_ra_curves_svg(tmp_path):
    c = RACurve(mode="low", points=[(2, 0.5), (4, 0.25)], model_id="m")
    p = tmp_path / "ra.svg"
    write_ra_curves_svg([c], p)
    text = p.read_text()
    assert text.lstrip().startswith("<svg") or "<svg" in text


# --- kernel heatmaps ---------------------------------------------------------


def test_dense_conv_counts_are_all_nine():
    model = build_small_convnet((3, 32, 32), 10, np.random.default_rng(0))
    conv1 = model.layers[0]
    mask = np.ones_like(conv1.weight.data, dtype=bool)
    hm = kernel_nonzero_counts(conv1, mask)
    assert hm.matrix.shape == (32, 3)
    assert np.all(hm.matrix == 9)
    assert hm.total() == 32 * 3 * 9


def test_hand_built_mask_counts():
    model = build_small_convnet((3, 32, 32), 10, np.random.default_rng(0))
    conv1 = model.layers[0]
    mask = np.zeros_like(conv1.weight.data, dtype=bool)
    mask[0, 0, 0, 0] = True
    mask[0, 0, 2, 2] = True
    mask[5, 1, 1, 1] = True
    mask[31, 2, 0, 2] = True
    hm = kernel_nonzero_counts(conv1, mask)
    assert hm.matrix[0, 0] == 2
    assert hm.matrix[5, 1] == 1
    assert hm.matrix[31, 2] == 1
    assert hm.total() == 4


def test_kernel_heatmap_rejects_non_conv():
    model = build_mlp((8, 4), np.random.default_rng(0))
    with pytest.raises(TypeError):
        kernel_nonzero_counts(model.layers[0], np.ones((4, 8), dtype=bool))


def test_kernel_heatmap_shape_mismatch():
    model = build_small_convnet((3, 32, 32), 10, np.random.default_rng(0))
    with pytest.raises(ValueError):
        kernel_nonzero_counts(model.layers[0], np.ones((32, 3, 2, 2), dtype=bool))


def test_heatmap_csv(tmp_path):
    hm = KernelHeatmap("conv1", "count", np.array([[1, 2], [3, 4]]))
    p = tmp_path / "hm.csv"
    hm.write_csv(p)
    assert p.read_text().splitlines() == ["1,2", "3,4"]
