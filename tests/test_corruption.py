"""Corruption kinds: determinism, range discipline, and per-kind behavior."""

import hashlib
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dstforge.corruption import (
    KINDS,
    SEVERITIES,
    CorruptionSpec,
    build_corrupted_set,
    corrupt,
    corrupt_images,
)
from dstforge.data import ImageSet

# SHA-256 of each cell's float32 output bytes for `golden_batch`, computed
# with the per-image renderer (one `corrupt` call per image) that preceded
# the batched one. They are an oracle independent of the code under test:
# never regenerate them from it.
GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "corruption_golden.json")
GOLDEN_SEEDS = {"1x28x28": 0, "3x32x32": 7}
NOISE_KINDS = KINDS[:4]


def sample_image(seed=0, c=1, h=16, w=16) -> np.ndarray:
    return np.random.default_rng(seed).random((c, h, w)).astype(np.float32)


def golden_batch(shape: str, n: int = 6) -> np.ndarray:
    """Blob-task images (noise in [0, 0.3) with one lit 2x2 blob each), the
    first all 0 and the last all 1."""
    c, h, w = (int(d) for d in shape.split("x"))
    imgs = (np.random.default_rng(11).random((n, c, h, w)) * 0.3).astype(np.float32)
    for i in range(n):
        cy, cx = 2 + (i % 5) * 2, 2 + (i // 5) * 6
        imgs[i, :, cy : cy + 2, cx : cx + 2] += 0.7
    imgs[0] = 0.0
    imgs[-1] = 1.0
    return np.clip(imgs, 0.0, 1.0)


def cell_digests(shape: str) -> dict[str, str]:
    x = golden_batch(shape)
    return {f"{shape} {kind}-s{sev}": hashlib.sha256(
                corrupt_images(x, CorruptionSpec(kind, sev, GOLDEN_SEEDS[shape])).tobytes()
            ).hexdigest()
            for kind in KINDS for sev in (1, 2, 3, 4, 5)}


def test_kind_taxonomy():
    assert KINDS == (
        "gaussian_noise", "shot_noise", "impulse_noise", "speckle_noise",
        "gaussian_blur", "defocus_blur", "motion_blur", "contrast",
        "brightness", "pixelate",
    )
    for kind in KINDS:  # every kind has a parameter at every severity
        for sev in SEVERITIES:
            assert isinstance(CorruptionSpec(kind, sev).param, (int, float)), (kind, sev)


def test_spec_validation():
    with pytest.raises(ValueError):
        CorruptionSpec("salt_and_vinegar", 1)
    with pytest.raises(ValueError):
        CorruptionSpec("contrast", 0)
    with pytest.raises(ValueError):
        CorruptionSpec("contrast", 6)
    assert CorruptionSpec("gaussian_noise", 3).param == pytest.approx(0.12)


def test_corrupt_rejects_out_of_range_input():
    img = sample_image() + 2.0
    with pytest.raises(ValueError):
        corrupt(img, CorruptionSpec("gaussian_noise", 1))
    with pytest.raises(ValueError):
        corrupt(np.zeros((16, 16), dtype=np.float32), CorruptionSpec("contrast", 1))


def test_gaussian_sigma_sample_statistics():
    # severity 3 -> sigma 0.12; over ~10k pixels the sample std of the added
    # noise lands within 5% (measured away from the clip boundaries)
    img = np.full((1, 100, 100), 0.5, dtype=np.float32)
    out = corrupt(img, CorruptionSpec("gaussian_noise", 3, seed=1))
    delta = (out - img).reshape(-1)
    interior = delta[(out.reshape(-1) > 0.0) & (out.reshape(-1) < 1.0)]
    assert abs(interior.std() - 0.12) / 0.12 < 0.05


def test_contrast_factor_one_would_be_identity():
    # the table has no factor-1 severity; apply the transform directly
    from dstforge.corruption import _contrast

    img = sample_image(3)[None]
    np.testing.assert_allclose(_contrast(img, 1.0, None), img, atol=1e-7)


def test_impulse_probability_zero_is_identity():
    from dstforge.corruption import _impulse_noise

    img = sample_image(4)[None]
    out = _impulse_noise(img, 0.0, np.random.default_rng(0))
    np.testing.assert_array_equal(out, img)


def test_impulse_flips_expected_fraction():
    img = np.full((1, 100, 100), 0.5, dtype=np.float32)
    out = corrupt(img, CorruptionSpec("impulse_noise", 5, seed=2))
    flipped = np.count_nonzero(out != img)
    assert flipped == round(0.17 * img.size)
    vals = np.unique(out[out != img])
    assert set(vals.tolist()) <= {0.0, 1.0}


def test_outputs_clipped_and_shapes_preserved():
    img = sample_image(5, c=3, h=17, w=13)
    for kind in KINDS:
        out = corrupt(img, CorruptionSpec(kind, 5, seed=3))
        assert out.shape == img.shape, kind
        assert out.dtype == np.float32
        assert out.min() >= 0.0 and out.max() <= 1.0, kind


def test_per_image_rng_is_order_independent():
    from dstforge.corruption import _render

    imgs = np.stack([sample_image(s) for s in range(6)])
    for kind in KINDS:
        for sev in (1, 5):
            spec = CorruptionSpec(kind, sev, seed=9)
            batch = corrupt_images(imgs, spec)
            # the tail rendered alone, from its own first stream, and each
            # image alone must give the same bytes as inside the batch
            for k in (1, 4):
                tail = _render(imgs[k:], spec, k)
                assert tail.tobytes() == batch[k:].tobytes(), (kind, sev, k)
            for i in range(len(imgs)):
                solo = corrupt(imgs[i], spec, index=i)
                assert solo.tobytes() == batch[i].tobytes(), (kind, sev, i)


def test_only_kinds_that_draw_build_generators(monkeypatch):
    import dstforge.corruption as corruption

    seeded = []
    real = corruption._stream_states
    monkeypatch.setattr(corruption, "_stream_states",
                        lambda spec, start, n: seeded.append((start, n)) or real(spec, start, n))
    imgs = np.stack([sample_image(s) for s in range(4)])
    for kind in KINDS:
        seeded.clear()
        corrupt_images(imgs, CorruptionSpec(kind, 3))
        draws = kind in NOISE_KINDS or kind == "motion_blur"
        # the kinds that draw seed the whole batch's streams in one call
        assert seeded == ([(0, 4)] if draws else []), kind


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=0, max_value=2**66), st.sampled_from(KINDS),
       st.sampled_from(SEVERITIES),
       st.one_of(st.integers(min_value=0, max_value=2**32 + 8),
                 st.integers(min_value=2**32 - 8, max_value=2**32 + 8),
                 st.integers(min_value=2**64 - 8, max_value=2**64 + 8)),
       st.integers(min_value=1, max_value=12))
def test_stream_states_are_default_rng_states(seed, kind, severity, start, n):
    # numpy's own seeding is the oracle: seeds and indices past 2**32 and
    # 2**64 split into more words, and a batch may straddle such a boundary
    from dstforge.corruption import _stream_states

    got = _stream_states(CorruptionSpec(kind, severity, seed), start, n)
    kind_id = KINDS.index(kind)
    assert got == [np.random.default_rng((seed, kind_id, severity, i)).bit_generator.state
                   for i in range(start, start + n)]


def test_streams_past_two_to_the_32_match_their_batch_rows():
    from dstforge.corruption import _render

    imgs = np.stack([sample_image(s) for s in range(8)])
    for kind in NOISE_KINDS + ("motion_blur",):
        spec = CorruptionSpec(kind, 4, seed=2**40 + 3)
        for start in (2**32, 2**32 - 5):
            batch = _render(imgs, spec, start)
            for i in (0, 5, 7):
                solo = corrupt(imgs[i], spec, index=start + i)
                assert solo.tobytes() == batch[i].tobytes(), (kind, start, i)


def test_negative_stream_seed_refused():
    with pytest.raises(ValueError, match="non-negative"):
        corrupt(sample_image(), CorruptionSpec("gaussian_noise", 1, seed=-1))


@pytest.mark.parametrize("shape", sorted(GOLDEN_SEEDS))
def test_cells_match_golden_digests(shape):
    with open(GOLDEN_PATH) as fh:
        golden = {k: v for k, v in json.load(fh).items() if k.startswith(shape + " ")}
    assert len(golden) == 50
    got = cell_digests(shape)
    assert [cell for cell in golden if got[cell] != golden[cell]] == []


def test_corrupt_images_validates_the_batch_once():
    spec = CorruptionSpec("brightness", 1)
    with pytest.raises(ValueError, match="batch"):
        corrupt_images(sample_image(), spec)
    with pytest.raises(ValueError, match="batch"):
        corrupt_images(np.zeros((2, 1, 1, 4, 4), dtype=np.float32), spec)
    bad = np.stack([sample_image(s) for s in range(3)])
    bad[2, 0, 5, 5] = 1.5
    with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
        corrupt_images(bad, spec)
    bad[2, 0, 5, 5] = -0.5
    with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
        corrupt_images(bad, spec)
    for kind in KINDS:
        empty = corrupt_images(np.zeros((0, 3, 8, 8)), CorruptionSpec(kind, 3))
        assert empty.shape == (0, 3, 8, 8) and empty.dtype == np.float32


def test_same_seed_byte_identical():
    imgs = np.stack([sample_image(s) for s in range(4)])
    labels = np.arange(4, dtype=np.int64) % 2
    clean = ImageSet(images=imgs, labels=labels, name="toy")
    a = build_corrupted_set(clean, kinds=("shot_noise",), severities=(1, 5), seed=7)
    b = build_corrupted_set(clean, kinds=("shot_noise",), severities=(1, 5), seed=7)
    for key in a:
        assert a[key].images.tobytes() == b[key].images.tobytes()
    c = build_corrupted_set(clean, kinds=("shot_noise",), severities=(1,), seed=8)
    assert a[("shot_noise", 1)].images.tobytes() != c[("shot_noise", 1)].images.tobytes()


def test_build_corrupted_set_cardinality_and_labels():
    imgs = np.stack([sample_image(s) for s in range(3)])
    labels = np.array([0, 1, 2], dtype=np.int64)
    clean = ImageSet(images=imgs, labels=labels, name="toy")
    grid = build_corrupted_set(clean, KINDS, SEVERITIES)
    assert len(grid) == 50
    for (kind, sev), s in grid.items():
        assert kind in KINDS and sev in (1, 2, 3, 4, 5)
        assert s.images.shape == imgs.shape
        np.testing.assert_array_equal(s.labels, labels)


def test_build_corrupted_set_validation():
    clean = ImageSet(images=sample_image()[None], labels=np.array([0]), name="toy")
    with pytest.raises(ValueError):
        build_corrupted_set(clean, (), SEVERITIES)
    with pytest.raises(ValueError):
        build_corrupted_set(clean, KINDS, ())
    with pytest.raises(ValueError):
        build_corrupted_set(clean, ("vignette",), SEVERITIES)


def test_pixelate_reduces_detail_but_keeps_resolution():
    img = sample_image(6, h=20, w=20)
    out = corrupt(img, CorruptionSpec("pixelate", 5, seed=0))
    assert out.shape == img.shape
    # nearest down-up sampling at scale 0.5 leaves at most 10x10 distinct rows
    distinct_rows = np.unique(out[0], axis=0).shape[0]
    assert distinct_rows <= 10


def test_blur_reduces_high_frequency_energy():
    r = np.random.default_rng(8)
    img = (r.random((1, 24, 24)) > 0.5).astype(np.float32)  # checkerboard-ish
    out = corrupt(img, CorruptionSpec("gaussian_blur", 5, seed=0))
    def hf_energy(x):
        f = np.fft.fftshift(np.fft.fft2(x[0]))
        h, w = f.shape
        yy, xx = np.mgrid[:h, :w]
        rr = np.hypot(yy - h // 2, xx - w // 2)
        return np.abs(f[rr > 6]).sum()
    assert hf_energy(out) < hf_energy(img)


def test_brightness_shifts_mean_up():
    img = np.full((1, 10, 10), 0.3, dtype=np.float32)
    out = corrupt(img, CorruptionSpec("brightness", 2, seed=0))
    assert out.mean() == pytest.approx(0.4, abs=1e-6)


@settings(deadline=None, max_examples=20)
@given(st.sampled_from(KINDS), st.integers(min_value=1, max_value=5),
       st.integers(min_value=0, max_value=100))
def test_corrupt_always_in_range(kind, severity, seed):
    img = np.random.default_rng(seed).random((1, 12, 12)).astype(np.float32)
    out = corrupt(img, CorruptionSpec(kind, severity, seed=seed), index=seed)
    assert out.shape == img.shape
    assert out.min() >= 0.0 and out.max() <= 1.0
    assert np.isfinite(out).all()


def test_severity_monotone_noise_degradation(dense_run):
    """A trained model's accuracy should not increase with noise severity,
    allowing at most one inversion per kind."""
    from dstforge.metrics import accuracy
    from dstforge.train import load_model_from_checkpoint, load_train_test

    cfg, ckpt = dense_run
    model, _ = load_model_from_checkpoint(ckpt)
    _, test = load_train_test(cfg)
    grid = build_corrupted_set(test, NOISE_KINDS, SEVERITIES, seed=0)
    for kind in NOISE_KINDS:
        accs = [accuracy(model, grid[(kind, s)]) for s in (1, 2, 3, 4, 5)]
        inversions = sum(1 for a, b in zip(accs, accs[1:]) if b > a + 1e-9)
        assert inversions <= 1, (kind, accs)


def disk_kernel(radius: int) -> np.ndarray:
    """Equal float32 weights on the pixels within `radius` of the centre."""
    yy, xx = np.mgrid[-radius : radius + 1, -radius : radius + 1]
    k = (yy * yy + xx * xx <= radius * radius).astype(np.float32)
    return k / k.sum()


def motion_kernel(length: int, angle: float) -> np.ndarray:
    """Equal float32 weights on a centred streak of `length` samples at
    `angle`, each rounded (half to even) to its pixel."""
    k = np.zeros((length, length), dtype=np.float32)
    center = (length - 1) // 2
    for t in np.linspace(-(length - 1) / 2, (length - 1) / 2, length):
        k[center + round(t * np.sin(angle)), center + round(t * np.cos(angle))] = 1.0
    return k / k.sum()


def ndimage_blur(x: np.ndarray, spec: CorruptionSpec) -> np.ndarray:
    """The blur cell as scipy.ndimage renders it, clipped as `corrupt_images`
    clips. Image i's motion angle is the first uniform draw of its stream,
    `default_rng((seed, kind id, severity, i))`."""
    from scipy import ndimage

    p = spec.param
    if spec.kind == "gaussian_blur":
        out = ndimage.gaussian_filter(x, sigma=(0, 0, p, p), mode="reflect")
    elif spec.kind == "defocus_blur":
        out = ndimage.convolve(x, disk_kernel(p)[None, None], mode="reflect")
    else:
        out = np.empty_like(x)
        for i, (img, img_out) in enumerate(zip(x, out)):
            rng = np.random.default_rng((spec.seed, KINDS.index(spec.kind), spec.severity, i))
            kernel = motion_kernel(p, rng.uniform(0.0, np.pi))
            ndimage.convolve(img, kernel[None], output=img_out, mode="reflect")
    return np.clip(out, 0.0, 1.0)


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=1, max_value=5), st.sampled_from((1, 3)),
       st.integers(min_value=1, max_value=13), st.integers(min_value=1, max_value=13),
       st.sampled_from((1, 1000, 1 << 15)), st.integers(min_value=0, max_value=2**32 - 1))
def test_blurs_match_ndimage_bytes(n, c, h, w, chunk, seed):
    # scipy.ndimage is the oracle only; the library's blurs never load it.
    # Sides from 1 to 13 include images narrower than every kernel's reach
    # (up to 6 pixels a side), where "reflect" pads past the far edge; the
    # chunk sizes run one image, a few, or the whole batch at a time.
    import dstforge.corruption as corruption

    x = np.random.default_rng(seed).random((n, c, h, w)).astype(np.float32)
    x[x > 0.9] = 1.0
    default_chunk, corruption._BLUR_CHUNK = corruption._BLUR_CHUNK, chunk
    try:
        for kind in ("gaussian_blur", "defocus_blur", "motion_blur"):
            for sev in SEVERITIES:
                spec = CorruptionSpec(kind, sev, seed % 1000)
                got = corrupt_images(x, spec)
                assert got.tobytes() == ndimage_blur(x, spec).tobytes(), (kind, sev)
    finally:
        corruption._BLUR_CHUNK = default_chunk


@settings(deadline=None, max_examples=30)
@given(st.sampled_from((3, 5, 7)), st.integers(min_value=1, max_value=9),
       st.integers(min_value=1, max_value=9), st.integers(min_value=0, max_value=2**32 - 1))
def test_convolve_flips_an_asymmetric_kernel_as_ndimage_does(k, h, w, seed):
    # the library's disk and motion kernels are point-symmetric, so only an
    # asymmetric kernel tells a convolution from a correlation
    from scipy import ndimage

    from dstforge.corruption import _convolve

    r = np.random.default_rng(seed)
    taps = r.random((k, k)) < 0.4
    taps[0, 0], taps[-1, -1] = True, False
    kernel = taps.astype(np.float32) / np.float32(taps.sum())
    x = r.random((2, 3, h, w)).astype(np.float32)
    want = ndimage.convolve(x, kernel[None, None], mode="reflect")
    assert _convolve(x, kernel).tobytes() == want.tobytes()
    if min(h, w) >= k:  # on smaller images the reflected planes can hide the flip
        assert ndimage.correlate(x, kernel[None, None], mode="reflect").tobytes() != want.tobytes()
