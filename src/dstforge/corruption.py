"""Severity-leveled image corruptions, generated deterministically per image.

Each image's randomness comes from a generator seeded by (set seed, kind id,
severity, image index), so a corrupted set is byte-identical no matter the
generation order, process count, or thread count. All kinds operate on float
images in [0, 1], channel-wise for grayscale and color alike, and clip their
output back to [0, 1].

A (kind, severity) cell is rendered as one batch: `corrupt_images` checks the
batch once, runs the kind's transform over all of it and clips once. Only the
kinds that draw random numbers loop over images, one generator each, and the
kinds that draw nothing build no generator. `corrupt` is the same pass on a
batch of one image, so its bytes equal that image's row of the batch.
`dstforge corrupt` and the study hold one rendered cell at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import ImageSet

KINDS = (
    "gaussian_noise",
    "shot_noise",
    "impulse_noise",
    "speckle_noise",
    "gaussian_blur",
    "defocus_blur",
    "motion_blur",
    "contrast",
    "brightness",
    "pixelate",
)

SEVERITIES = (1, 2, 3, 4, 5)

SEVERITY_TABLE = {
    "gaussian_noise": (0.04, 0.08, 0.12, 0.18, 0.26),  # additive sigma
    "shot_noise": (500, 250, 100, 75, 50),  # photon count c
    "impulse_noise": (0.01, 0.02, 0.05, 0.10, 0.17),  # flip prob p
    "speckle_noise": (0.06, 0.10, 0.15, 0.20, 0.30),  # multiplicative sigma
    "gaussian_blur": (0.4, 0.6, 0.8, 1.0, 1.5),  # filter sigma
    "defocus_blur": (1, 2, 3, 4, 5),  # disk radius
    "motion_blur": (3, 5, 7, 9, 11),  # streak length
    "contrast": (0.75, 0.5, 0.4, 0.3, 0.15),  # scale about the mean
    "brightness": (0.05, 0.10, 0.15, 0.20, 0.30),  # additive offset
    "pixelate": (0.9, 0.8, 0.7, 0.6, 0.5),  # downsampling scale
}


@dataclass(frozen=True)
class CorruptionSpec:
    kind: str
    severity: int
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown corruption kind {self.kind!r}")
        if self.severity not in SEVERITIES:
            raise ValueError(f"severity must be 1..5, got {self.severity}")

    @property
    def param(self):
        return SEVERITY_TABLE[self.kind][self.severity - 1]


def _image_rng(spec: CorruptionSpec, index: int) -> np.random.Generator:
    return np.random.default_rng((spec.seed, KINDS.index(spec.kind), spec.severity, index))


# Each transform maps a float32 (n, c, h, w) batch to a new array. `rngs`
# yields image i's generator on demand; kinds that draw nothing never ask.


def _draw_noise(x, sigma, rngs):
    """One standard normal field per image, scaled by sigma, in float32."""
    noise = np.empty_like(x)
    for img_noise, rng in zip(noise, rngs):
        # the float64 product is rounded into float32 as astype would round it
        np.multiply(rng.standard_normal(img_noise.shape), sigma, out=img_noise)
    return noise


def _gaussian_noise(x, sigma, rngs):
    noise = _draw_noise(x, sigma, rngs)
    noise += x
    return noise


def _shot_noise(x, c, rngs):
    counts = np.empty_like(x)
    for img, img_counts, rng in zip(x, counts, rngs):
        img_counts[...] = rng.poisson(img.astype(np.float64) * c)
    # the counts are exact in float32, and float32 division gives the bytes
    # of dividing in float64 and casting: float64's 53 bits are at least
    # 2 * 24 + 2, so rounding twice cannot differ from rounding once
    counts /= c
    return counts


def _impulse_noise(x, p, rngs):
    out = x.copy()
    size = x[0].size
    n_flip = int(round(p * size))
    if n_flip:
        n_salt = (n_flip + 1) // 2
        for flat, rng in zip(out.reshape(len(x), size), rngs):
            pos = rng.choice(size, size=n_flip, replace=False)
            flat[pos[:n_salt]] = 1.0
            flat[pos[n_salt:]] = 0.0
    return out


def _speckle_noise(x, sigma, rngs):
    noise = _draw_noise(x, sigma, rngs)
    noise *= x
    noise += x
    return noise


# The blurs import scipy.ndimage when they run, not at module load: every
# process that imports this module (cli, study) would otherwise pay its
# memory and start-up time, and only the three blur kinds call it.
def _gaussian_blur(x, sigma, rngs):
    from scipy import ndimage
    return ndimage.gaussian_filter(x, sigma=(0, 0, sigma, sigma), mode="reflect")


def _disk_kernel(radius: int) -> np.ndarray:
    yy, xx = np.mgrid[-radius : radius + 1, -radius : radius + 1]
    k = (yy * yy + xx * xx <= radius * radius).astype(np.float32)
    return k / k.sum()


def _defocus_blur(x, radius, rngs):
    from scipy import ndimage
    return ndimage.convolve(x, _disk_kernel(radius)[None, None], mode="reflect")


def _motion_kernel(length: int, angle: float) -> np.ndarray:
    k = np.zeros((length, length), dtype=np.float32)
    center = (length - 1) // 2
    t = np.arange(length) - (length - 1) / 2  # the values of linspace(-a, a, length), exactly
    # np.rint rounds half to even, as Python's round does
    iy = center + np.rint(t * np.sin(angle)).astype(np.intp)
    ix = center + np.rint(t * np.cos(angle)).astype(np.intp)
    k[iy, ix] = 1.0
    return k / k.sum()


def _motion_blur(x, length, rngs):
    from scipy import ndimage
    out = np.empty_like(x)
    for img, img_out, rng in zip(x, out, rngs):
        kernel = _motion_kernel(length, rng.uniform(0.0, np.pi))
        ndimage.convolve(img, kernel[None], output=img_out, mode="reflect")
    return out


def _contrast(x, factor, rngs):
    mean = x.mean(axis=(1, 2, 3), keepdims=True)
    out = x - mean
    out *= factor
    out += mean
    return out


def _brightness(x, offset, rngs):
    return x + offset


def _nearest_index(size: int, new_size: int) -> np.ndarray:
    """Source index of each of `new_size` nearest-neighbour samples."""
    return np.floor((np.arange(new_size) + 0.5) * size / new_size).astype(int)


def _pixelate(x, scale, rngs):
    h, w = x.shape[2:]
    nh = max(1, int(round(h * scale)))
    nw = max(1, int(round(w * scale)))
    # nearest down- then up-sampling, composed into one gather
    rows = _nearest_index(h, nh)[_nearest_index(nh, h)]
    cols = _nearest_index(w, nw)[_nearest_index(nw, w)]
    return x[:, :, rows[:, None], cols]


_TRANSFORMS = {
    "gaussian_noise": _gaussian_noise,
    "shot_noise": _shot_noise,
    "impulse_noise": _impulse_noise,
    "speckle_noise": _speckle_noise,
    "gaussian_blur": _gaussian_blur,
    "defocus_blur": _defocus_blur,
    "motion_blur": _motion_blur,
    "contrast": _contrast,
    "brightness": _brightness,
    "pixelate": _pixelate,
}


def _render(images: np.ndarray, spec: CorruptionSpec, start: int) -> np.ndarray:
    """Corrupt a batch whose first image uses random stream `start`."""
    images = np.asarray(images, dtype=np.float32)
    if images.ndim != 4:
        raise ValueError(f"corrupt_images expects an (n, c, h, w) batch, got shape {images.shape}")
    if not images.size:
        return images.copy()
    if images.min() < 0.0 or images.max() > 1.0:
        raise ValueError("corrupt: input values outside [0, 1]")
    rngs = (_image_rng(spec, start + i) for i in range(images.shape[0]))
    out = _TRANSFORMS[spec.kind](images, spec.param, rngs)
    # every transform returns a new float32 array, so clipping in place is safe
    return np.clip(out, 0.0, 1.0, out=out)


def corrupt(image: np.ndarray, spec: CorruptionSpec, index: int = 0) -> np.ndarray:
    """Corrupt a single (c, h, w) image in [0, 1]; `index` selects the
    per-image random stream. The bytes equal the image's row in a
    `corrupt_images` batch where it sits at row `index`."""
    image = np.asarray(image, dtype=np.float32)
    if image.ndim != 3:
        raise ValueError(f"corrupt expects a (c, h, w) image, got shape {image.shape}")
    return _render(image[None], spec, index)[0]


def corrupt_images(images: np.ndarray, spec: CorruptionSpec) -> np.ndarray:
    """Corrupt an (n, c, h, w) batch in [0, 1] as one pass; image i draws from
    random stream i."""
    return _render(images, spec, 0)


def build_corrupted_set(clean: ImageSet, kinds, severities,
                        seed: int = 0) -> dict[tuple[str, int], ImageSet]:
    """One corrupted copy of the clean set per (kind, severity); labels pass
    through untouched."""
    kinds, severities = tuple(kinds), tuple(severities)
    if not kinds or not severities:
        raise ValueError("build_corrupted_set needs non-empty kinds and severities")
    for k in kinds:
        if k not in KINDS:
            raise ValueError(f"unknown corruption kind {k!r}")
    out = {}
    for kind in kinds:
        for sev in severities:
            spec = CorruptionSpec(kind, sev, seed)
            out[(kind, sev)] = ImageSet(
                images=corrupt_images(clean.images, spec),
                labels=clean.labels.copy(),
                name=clean.name,
            )
    return out
