"""Severity-leveled image corruptions, generated deterministically per image.

Each image's randomness comes from a generator seeded by (set seed, kind id,
severity, image index), so a corrupted set is byte-identical no matter the
generation order, process count, or thread count. All kinds operate on float
images in [0, 1], channel-wise for grayscale and color alike, and clip their
output back to [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

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

# reporting convention: noise kinds carry mostly high-frequency energy,
# blur/contrast kinds are low-frequency-dominant
HIGH_FREQUENCY_KINDS = KINDS[:4]
LOW_FREQUENCY_KINDS = KINDS[4:]

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


def _gaussian_noise(x, sigma, rng):
    return x + (rng.standard_normal(x.shape) * sigma).astype(np.float32)


def _shot_noise(x, c, rng):
    return (rng.poisson(x.astype(np.float64) * c) / c).astype(np.float32)


def _impulse_noise(x, p, rng):
    out = x.reshape(-1).copy()
    n_flip = int(round(p * out.size))
    if n_flip:
        pos = rng.choice(out.size, size=n_flip, replace=False)
        n_salt = (n_flip + 1) // 2
        out[pos[:n_salt]] = 1.0
        out[pos[n_salt:]] = 0.0
    return out.reshape(x.shape)


def _speckle_noise(x, sigma, rng):
    return x + x * (rng.standard_normal(x.shape) * sigma).astype(np.float32)


def _gaussian_blur(x, sigma, rng):
    return ndimage.gaussian_filter(x, sigma=(0, sigma, sigma), mode="reflect")


def _disk_kernel(radius: int) -> np.ndarray:
    yy, xx = np.mgrid[-radius : radius + 1, -radius : radius + 1]
    k = (yy * yy + xx * xx <= radius * radius).astype(np.float32)
    return k / k.sum()


def _defocus_blur(x, radius, rng):
    return ndimage.convolve(x, _disk_kernel(radius)[None, :, :], mode="reflect")


def _motion_kernel(length: int, angle: float) -> np.ndarray:
    k = np.zeros((length, length), dtype=np.float32)
    center = (length - 1) // 2
    for t in np.linspace(-(length - 1) / 2, (length - 1) / 2, length):
        iy = center + int(round(t * np.sin(angle)))
        ix = center + int(round(t * np.cos(angle)))
        k[iy, ix] = 1.0
    return k / k.sum()


def _motion_blur(x, length, rng):
    angle = rng.uniform(0.0, np.pi)
    return ndimage.convolve(x, _motion_kernel(length, angle)[None, :, :], mode="reflect")


def _contrast(x, factor, rng):
    mean = x.mean()
    return (x - mean) * factor + mean


def _brightness(x, offset, rng):
    return x + offset


def _nearest_resample(x, new_h, new_w):
    c, h, w = x.shape
    rows = np.floor((np.arange(new_h) + 0.5) * h / new_h).astype(int)
    cols = np.floor((np.arange(new_w) + 0.5) * w / new_w).astype(int)
    return x[:, rows][:, :, cols]


def _pixelate(x, scale, rng):
    c, h, w = x.shape
    nh = max(1, int(round(h * scale)))
    nw = max(1, int(round(w * scale)))
    down = _nearest_resample(x, nh, nw)
    return _nearest_resample(down, h, w)


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


def corrupt(image: np.ndarray, spec: CorruptionSpec, index: int = 0) -> np.ndarray:
    """Corrupt a single (c, h, w) image in [0, 1]; `index` selects the
    per-image random stream."""
    image = np.asarray(image, dtype=np.float32)
    if image.ndim != 3:
        raise ValueError(f"corrupt expects a (c, h, w) image, got shape {image.shape}")
    if image.min() < 0.0 or image.max() > 1.0:
        raise ValueError("corrupt: input values outside [0, 1]")
    rng = _image_rng(spec, index)
    out = _TRANSFORMS[spec.kind](image, spec.param, rng)
    return np.clip(out, 0.0, 1.0).astype(np.float32)


def corrupt_images(images: np.ndarray, spec: CorruptionSpec) -> np.ndarray:
    out = np.empty_like(images, dtype=np.float32)
    for i in range(images.shape[0]):
        out[i] = corrupt(images[i], spec, index=i)
    return out


def build_corrupted_set(clean: ImageSet, kinds=None, severities=None,
                        seed: int = 0) -> dict[tuple[str, int], ImageSet]:
    """One corrupted copy of the clean set per (kind, severity); labels pass
    through untouched."""
    kinds = tuple(kinds) if kinds is not None else KINDS
    severities = tuple(severities) if severities is not None else SEVERITIES
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
                fmt=clean.fmt,
            )
    return out
