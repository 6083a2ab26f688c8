"""Frequency-domain attenuation diagnostics: radially filtered inputs and
robustness-accuracy (RA) curves.

Attenuation removes spectrum bins by their Euclidean distance from the DC
bin of the centered spectrum, with the distance clamped at
r_max = floor(min(h, w)/2) so corner bins count as r_max. Low mode removes
d < r (low frequencies go first), high mode removes d > r_max - r; bins
exactly at the cutoff always survive, and r = 0 is an exact identity in both
modes. The keep mask is built on the centered grid and moved into numpy's
FFT bin order, so the batch's spectrum is never shifted. An RA sweep takes
each batch's spectrum once and filters every radius from it, transforming
a few images at a time, since numpy's FFT temporaries for a whole batch
would be the largest allocation of a study. Each radius's view is a whole
batch, since the models' GEMM row bytes can depend on the row count, written
into the buffer of the radius before: a view is valid only until the next
view is requested.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import ImageSet
from .metrics import batched_accuracy
from .models import Model
from .svg import line_plot


@dataclass
class RACurve:
    mode: str
    points: list  # ordered (radius, accuracy)
    model_id: str = ""

    def __post_init__(self):
        radii = [r for r, _ in self.points]
        if any(b <= a for a, b in zip(radii, radii[1:])):
            raise ValueError("RA curve radii must be strictly increasing")
        if any(not 0.0 <= a <= 1.0 for _, a in self.points):
            raise ValueError("RA curve accuracies must lie in [0, 1]")


def _keep_masks(shape: tuple, mode: str, radii) -> list[np.ndarray]:
    """For each radius, the bins of an (..., h, w) batch's spectrum that
    attenuation keeps (low mode: d >= r, high mode: d <= r_max - r), in FFT
    bin order."""
    if mode not in ("low", "high"):
        raise ValueError(f"attenuate mode must be 'low' or 'high', got {mode!r}")
    if len(shape) < 2 or min(shape[-2:]) < 2:
        raise ValueError(f"attenuation needs spatial dims >= 2, got {shape}")
    h, w = shape[-2:]
    r_max = min(h, w) // 2
    for r in radii:
        if not 0 <= r <= r_max:
            raise ValueError(f"attenuate: r {r} outside [0, {r_max}]")
    yy, xx = np.mgrid[0:h, 0:w]
    d = np.minimum(np.sqrt((yy - h // 2) ** 2 + (xx - w // 2) ** 2), r_max)
    return [np.fft.ifftshift(d >= r if mode == "low" else d <= r_max - r) for r in radii]


def attenuate_images(images: np.ndarray, mode: str, r: int) -> np.ndarray:
    """Remove one distance band from every channel's spectrum (low mode:
    d < r, high mode: d > r_max - r) and return the images, clipped to
    [0, 1], as float32."""
    images = np.asarray(images)
    [keep] = _keep_masks(images.shape, mode, [r])
    return np.clip(np.fft.ifft2(np.fft.fft2(images) * keep).real, 0.0, 1.0).astype(np.float32)


# spectrum elements a sweep transforms at a time, forward or inverse: about
# 20 1x28x28 images or 5 3x32x32 ones, and at least one image
_FFT_CHUNK = 1 << 14


def _filtered_views(x: np.ndarray, keeps: list[np.ndarray]):
    """For each keep mask in turn, the batch `x` as `attenuate_images` filters
    it, to the same bytes. The spectrum is taken once, _FFT_CHUNK elements at
    a time, and every view is written into one float32 batch, so a view is
    valid only until the next one is requested."""
    step = max(1, _FFT_CHUNK // math.prod(x.shape[1:]))
    chunks = [slice(s, s + step) for s in range(0, len(x), step)]
    spectrum = np.empty(x.shape, np.result_type(x.dtype, np.complex64))
    for s in chunks:
        np.fft.fft2(x[s], out=spectrum[s])
    out = np.empty(x.shape, np.float32)
    for keep in keeps:
        for s in chunks:
            np.clip(np.fft.ifft2(spectrum[s] * keep).real, 0.0, 1.0, out=out[s])
        yield out


def check_radii(radii: list, h: int, w: int):
    """Reject an attenuation sweep that is empty, not strictly increasing, or
    reaches outside [0, min(h, w)//2] for h x w images."""
    r_max = min(h, w) // 2
    if (not radii or any(b <= a for a, b in zip(radii, radii[1:]))
            or radii[0] < 0 or radii[-1] > r_max):
        raise ValueError(f"attenuation radii must be strictly increasing within "
                         f"[0, {r_max}] for {h}x{w} images, got {radii}")


def ra_curve(models: list[Model], clean_test: ImageSet, mode: str, radii) -> list[RACurve]:
    """Accuracy after frequency attenuation, one point per radius and one
    curve per model. The radii are checked before any model is scored."""
    radii = list(radii)
    check_radii(radii, *clean_test.images.shape[-2:])
    keeps = _keep_masks(clean_test.images.shape, mode, radii)
    # one spectrum per batch, filtered at each radius in turn, so a filtered
    # copy of the set never exists whole; every model scores each view
    accs = batched_accuracy(models, clean_test.images, clean_test.labels,
                            views=lambda x: _filtered_views(x, keeps))
    return [RACurve(mode=mode, points=[(int(r), row[i]) for r, row in zip(radii, accs)],
                    model_id=model.spec.to_string())
            for i, model in enumerate(models)]


def write_ra_curves_svg(curves: list[RACurve], path):
    series = [(f"{c.model_id or 'model'} {c.mode}", [(r, a) for r, a in c.points]) for c in curves]
    line_plot(series, "frequency attenuation", path, "attenuation radius r", "accuracy")
