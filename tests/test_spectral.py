"""Frequency attenuation against the centered-spectrum definition, and RA curves."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dstforge.models import build_model, parse_model_spec
from dstforge.spectral import RACurve, attenuate_images, ra_curve, write_ra_curves_svg
from dstforge.data import ImageSet


def rand_image(seed=0, c=1, h=16, w=16):
    return np.random.default_rng(seed).random((c, h, w)).astype(np.float32)


def reference_attenuate(images, mode, r):
    """The definition, step by step: shift the spectrum so DC sits at
    (h//2, w//2), clamp each bin's distance from it at r_max, zero the bins
    the mode removes, shift back, invert, clip to [0, 1]."""
    h, w = images.shape[-2:]
    spec = np.fft.fftshift(np.fft.fft2(images, axes=(-2, -1)), axes=(-2, -1))
    r_max = min(h, w) // 2
    yy, xx = np.mgrid[0:h, 0:w]
    d = np.minimum(np.sqrt((yy - h // 2) ** 2 + (xx - w // 2) ** 2), r_max)
    keep = d >= r if mode == "low" else d <= r_max - r
    back = np.fft.ifft2(np.fft.ifftshift(spec * keep, axes=(-2, -1)), axes=(-2, -1))
    return np.clip(back.real, 0.0, 1.0).astype(np.float32)


def mid_range_image(seed, c=1, h=16, w=16):
    """Pixels in [0.45, 0.55]: no filter output leaves [0, 1], so nothing is
    clipped and the output is the filtered image itself."""
    return (0.45 + 0.1 * rand_image(seed, c, h, w)).astype(np.float64)


def spectrum_energy(x):
    """sum |x|^2 computed in the frequency domain (Parseval: sum |X|^2 / (h*w))."""
    h, w = x.shape[-2:]
    return float((np.abs(np.fft.fft2(x.astype(np.float64))) ** 2).sum()) / (h * w)


# --- attenuation --------------------------------------------------------------


@pytest.mark.parametrize("shape", [(23, 1, 28, 28), (9, 3, 32, 32), (7, 1, 15, 13)])
def test_attenuate_images_matches_the_centered_spectrum_definition_bytewise(shape):
    images = np.random.default_rng(sum(shape)).random(shape).astype(np.float32)
    for r in range(min(shape[-2:]) // 2 + 1):
        for mode in ("low", "high"):
            out = attenuate_images(images, mode, r)
            assert out.dtype == np.float32 and out.shape == images.shape
            assert out.tobytes() == reference_attenuate(images, mode, r).tobytes(), (mode, r)


def test_round_trip_identity():
    # r = 0 removes nothing from any image or channel of a batch
    imgs = np.random.default_rng(1).random((5, 3, 16, 16)).astype(np.float32)
    for mode in ("low", "high"):
        assert np.abs(attenuate_images(imgs, mode, 0) - imgs).max() <= 1e-5


def test_round_trip_odd_dims():
    imgs = np.random.default_rng(2).random((4, 1, 15, 13)).astype(np.float32)
    for mode in ("low", "high"):
        assert np.abs(attenuate_images(imgs, mode, 0) - imgs).max() <= 1e-5


def test_parseval_identity():
    # the filter is a projection: the output's energy is that of the kept
    # bins. High mode keeps DC, so the output stays unclipped
    img = mid_range_image(3)
    spec_energy = np.abs(np.fft.fftshift(np.fft.fft2(img))) ** 2 / img[0].size
    d = np.minimum(np.hypot(*np.mgrid[-8:8, -8:8]), 8)
    for r in range(9):
        out = attenuate_images(img, "high", r).astype(np.float64)
        keep = d <= 8 - r
        spatial = float((out ** 2).sum())
        assert spatial == pytest.approx(float(spec_energy[0][keep].sum()), rel=1e-5)
        assert spatial == pytest.approx(spectrum_energy(out), rel=1e-9)


def test_constant_image_concentrates_at_dc():
    img = np.full((1, 8, 8), 0.5)
    # removing the DC bin alone removes everything
    assert np.abs(attenuate_images(img, "low", 1)).max() <= 1e-7
    # keeping the DC bin alone keeps everything
    np.testing.assert_allclose(attenuate_images(img, "high", 4), img, atol=1e-7)


def test_attenuate_r0_is_identity_both_modes():
    img = rand_image(4)
    for mode in ("low", "high"):
        out = attenuate_images(img, mode, 0)
        np.testing.assert_allclose(out, img, atol=1e-5)


def test_low_r1_removes_only_dc():
    img = rand_image(5)
    # removing the DC bin alone subtracts each channel's mean, then clips
    centered = img - img.mean(axis=(-2, -1), keepdims=True)
    np.testing.assert_allclose(attenuate_images(img, "low", 1), np.clip(centered, 0, 1),
                               atol=1e-5)


def test_high_mode_removes_far_bins_first():
    img = mid_range_image(6, h=8, w=8)
    out = attenuate_images(img, "high", 1)
    before = np.fft.fftshift(np.fft.fft2(img))[0]
    after = np.fft.fftshift(np.fft.fft2(out.astype(np.float64)))[0]
    d = np.minimum(np.hypot(*np.mgrid[-4:4, -4:4]), 4)
    assert np.abs(after[d > 3]).max() <= 1e-5
    np.testing.assert_allclose(after[d <= 3], before[d <= 3], atol=1e-5)


def test_attenuate_validation():
    img = rand_image(7)
    with pytest.raises(ValueError, match="'low' or 'high'"):
        attenuate_images(img, "band", 1)
    with pytest.raises(ValueError, match=r"outside \[0, 8\]"):
        attenuate_images(img, "low", -1)
    with pytest.raises(ValueError, match=r"outside \[0, 8\]"):
        attenuate_images(img, "low", 9)  # r_max = 8 for 16x16


def test_full_attenuation_blanks_image():
    img = mid_range_image(8)
    # low r_max keeps only the clamped ring at r_max: the mean goes with DC,
    # and the faint ring is all that is left
    assert attenuate_images(img, "low", 8).max() <= 0.05
    # high r_max keeps d <= 0: only the DC bin survives -> the constant mean
    out = attenuate_images(img, "high", 8)
    assert np.ptp(out) <= 1e-6
    assert out.mean() == pytest.approx(img.mean(), abs=1e-6)


def test_dft_rejects_tiny_images():
    with pytest.raises(ValueError, match="spatial dims >= 2"):
        attenuate_images(np.ones((3, 1, 5)), "low", 0)


@settings(deadline=None, max_examples=20)
@given(st.integers(min_value=0, max_value=1000), st.integers(min_value=0, max_value=6),
       st.sampled_from(["low", "high"]))
def test_attenuation_never_increases_energy(seed, r, mode):
    # removing bins and clipping to [0, 1] can each only lose energy
    img = np.random.default_rng(seed).random((2, 1, 12, 12))
    out = attenuate_images(img, mode, r)
    assert spectrum_energy(out) <= spectrum_energy(img) * (1 + 1e-6)


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
    model = build_model(parse_model_spec("mlp:144-16-10"), np.random.default_rng(1))
    [curve] = ra_curve([model], s, "low", (0, 2, 4))
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
    model = build_model(parse_model_spec("mlp:144-16-10"), np.random.default_rng(1))
    [curve] = ra_curve([model], s, "high", (0, 3))
    assert curve.points[0][1] == pytest.approx(accuracy(model, s))


def test_ra_curve_filters_each_batch_once_for_every_model(monkeypatch):
    # one forward FFT per batch for the whole sweep, one inverse per batch
    # and radius, and every model scores the very same filtered batch
    import dstforge.metrics
    from dstforge.models import Model

    r = np.random.default_rng(4)
    s = ImageSet(images=r.random((25, 1, 12, 12)).astype(np.float32),
                 labels=r.integers(0, 10, 25).astype(np.int64), name="toy")
    spec = parse_model_spec("mlp:144-16-10")
    models = [build_model(spec, np.random.default_rng(seed)) for seed in (1, 2, 3)]
    monkeypatch.setattr(dstforge.metrics, "EVAL_BATCH", 10)
    singles = [ra_curve([m], s, "low", (0, 2, 4))[0] for m in models]
    forward, inverse, scored = [], [], []
    fft2, ifft2, predict = np.fft.fft2, np.fft.ifft2, Model.predict

    def counted_fft2(x, *args, **kwargs):
        forward.append(len(x))
        return fft2(x, *args, **kwargs)

    def counted_ifft2(x, *args, **kwargs):
        inverse.append(len(x))
        return ifft2(x, *args, **kwargs)

    def recorded_predict(model, x, *args, **kwargs):
        scored.append((models.index(model), x))
        return predict(model, x, *args, **kwargs)

    monkeypatch.setattr(np.fft, "fft2", counted_fft2)
    monkeypatch.setattr(np.fft, "ifft2", counted_ifft2)
    monkeypatch.setattr(Model, "predict", recorded_predict)
    curves = ra_curve(models, s, "low", (0, 2, 4))
    assert forward == [10, 10, 5]
    assert inverse == [n for n in (10, 10, 5) for _ in (0, 2, 4)]
    assert [i for i, _ in scored] == [0, 1, 2] * 9
    for k in range(0, len(scored), 3):
        assert scored[k][1] is scored[k + 1][1] is scored[k + 2][1]
    assert [c.points for c in curves] == [c.points for c in singles]
    assert [c.model_id for c in curves] == ["mlp:144-16-10"] * 3


@pytest.mark.parametrize("shape", [(37, 1, 28, 28), (37, 3, 32, 32)])
@pytest.mark.parametrize("mode", ["low", "high"])
def test_the_chunked_sweep_gives_the_bytes_of_whole_batch_attenuation(shape, mode):
    # 37 images are not a whole number of the sweep's chunks at either shape
    from dstforge.spectral import _FFT_CHUNK, _filtered_views, _keep_masks

    assert 37 % max(1, _FFT_CHUNK // int(np.prod(shape[1:]))) != 0
    images = np.random.default_rng(sum(shape)).random(shape).astype(np.float32)
    radii = range(min(shape[-2:]) // 2 + 1)
    views = _filtered_views(images, _keep_masks(shape, mode, radii))
    for r, view in zip(radii, views, strict=True):
        assert view.dtype == np.float32 and view.shape == shape
        assert view.tobytes() == attenuate_images(images, mode, r).tobytes(), r


def test_an_ra_sweep_holds_a_few_batches_of_memory():
    # two study MLPs over 1000 1x28x28 images: whole-batch transforms peaked
    # at 20.5 MB above entry, the chunked sweep at 6.7 MB
    import tracemalloc

    r = np.random.default_rng(5)
    s = ImageSet(images=r.random((1000, 1, 28, 28)).astype(np.float32),
                 labels=r.integers(0, 10, 1000).astype(np.int64), name="toy")
    spec = parse_model_spec("mlp:784-300-100-10")
    models = [build_model(spec, np.random.default_rng(seed)) for seed in (1, 2)]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ra_curve(models, s, "low", (2, 4, 6, 8, 10))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000


# --- a known-answer RA curve -------------------------------------------------

# Class k > 0 is a cosine at FREQS[k - 1] (cycles per 28 pixels down and
# across) about 0.5, so the clean images need no clip; class 0 is blank. No
# frequency is a multiple of another modulo 28, so the harmonics of a cosine
# clipped after low mode removed its mean never reach another class's bins.
FREQS = ((0, 2), (3, 1), (2, 5), (7, 3), (5, 9), (12, 5))
SIDE = 28


def cosine_images(per_class: int = 3):
    """IDX-exact (multiples of 1/255) 28x28 images, `per_class` of each of
    the 1 + len(FREQS) classes, at amplitudes 0.25-0.5 and random phases."""
    r = np.random.default_rng(17)
    yy, xx = np.mgrid[0:SIDE, 0:SIDE]
    images, labels = [], []
    for label in range(1 + len(FREQS)):
        for _ in range(per_class):
            img = np.full((SIDE, SIDE), 0.5)
            if label:
                u, v = FREQS[label - 1]
                theta = 2 * np.pi * (u * yy + v * xx) / SIDE + r.uniform(0, 2 * np.pi)
                img += r.uniform(0.25, 0.5) * np.cos(theta)
            images.append(np.rint(img * 255) / 255)
            labels.append(label)
    return np.array(images, dtype=np.float32), np.array(labels, dtype=np.uint8)


def frequency_detector():
    """mlp:784-24-7 whose class-k logit is the summed magnitude of the
    image's cosine and sine projections at FREQS[k - 1]; class 0's bias wins
    when none of them is present."""
    from dstforge.models import model_from_arrays

    yy, xx = np.mgrid[0:SIDE, 0:SIDE]
    w1, w2 = [], np.zeros((1 + len(FREQS), 4 * len(FREQS)), dtype=np.float32)
    for k, (u, v) in enumerate(FREQS):
        theta = 2 * np.pi * (u * yy + v * xx) / SIDE
        w1 += [np.cos(theta), -np.cos(theta), np.sin(theta), -np.sin(theta)]
        w2[k + 1, 4 * k : 4 * k + 4] = 1.0
    w1 = np.array(w1, dtype=np.float32).reshape(4 * len(FREQS), SIDE * SIDE)
    b2 = np.zeros(1 + len(FREQS), dtype=np.float32)
    b2[0] = 5.0
    arrays = {name: (w, b, np.zeros_like(w), np.zeros_like(b)) for name, w, b in (
        ("fc1", w1, np.zeros(len(w1), dtype=np.float32)), ("fc2", w2, b2))}
    return model_from_arrays(parse_model_spec(f"mlp:{SIDE * SIDE}-{len(w1)}-{len(w2)}"), arrays)


def known_curve(labels, mode, radii):
    """The blank images plus those whose class frequency the mode keeps at r."""
    r_max = SIDE // 2
    dist = [0.0] + [min(np.hypot(u, v), r_max) for u, v in FREQS]
    kept = lambda d, r: d >= r if mode == "low" else d <= r_max - r
    return [(r, sum(1 for y in labels if y == 0 or kept(dist[y], r)) / len(labels))
            for r in radii]


@pytest.mark.parametrize("mode", ["low", "high"])
def test_ra_curve_gives_the_known_answer(monkeypatch, mode):
    import dstforge.metrics

    images, labels = cosine_images()
    s = ImageSet(images=images[:, None], labels=labels.astype(np.int64), name="cosines")
    radii = range(SIDE // 2 + 1)
    want = known_curve(labels, mode, radii)
    assert [c.points for c in ra_curve([frequency_detector()], s, mode, radii)] == [want]
    # several batches per sweep give the same curve
    monkeypatch.setattr(dstforge.metrics, "EVAL_BATCH", 8)
    assert ra_curve([frequency_detector()], s, mode, radii)[0].points == want


@pytest.mark.parametrize("mode", ["low", "high"])
def test_attenuate_command_gives_the_known_answer(tmp_path, capsys, mode):
    import json

    from conftest import write_idx_pair
    from dstforge.checkpoint import save_checkpoint
    from dstforge.cli import main
    from dstforge.schedulers import BudgetTrajectory, DstConfig
    from dstforge.sparsity import TopologyMask

    images, labels = cosine_images()
    write_idx_pair(str(tmp_path), "t10k", images, labels)
    ckpt = str(tmp_path / "detector.ckpt")
    save_checkpoint(ckpt, frequency_detector(), TopologyMask({}), 1, np.random.default_rng(0),
                    DstConfig(method="dense", total_steps=1), 0, "0" * 64,
                    BudgetTrajectory(), 0.0, 0)
    radii = range(SIDE // 2 + 1)
    code = main(["attenuate", ckpt, "--mode", mode, "--radii", ",".join(map(str, radii)),
                 "--images", str(tmp_path / "t10k-images-idx3-ubyte")])
    assert code == 0
    points = json.loads(capsys.readouterr().out)["points"]
    assert [(p["radius"], p["accuracy"]) for p in points] == known_curve(labels, mode, radii)


def test_write_ra_curves_svg(tmp_path):
    c = RACurve(mode="low", points=[(2, 0.5), (4, 0.25)], model_id="m")
    p = tmp_path / "ra.svg"
    write_ra_curves_svg([c], p)
    text = p.read_text()
    assert text.lstrip().startswith("<svg") or "<svg" in text
