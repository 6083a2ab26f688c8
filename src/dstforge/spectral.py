"""Frequency-domain attenuation diagnostics: radially filtered inputs and
robustness-accuracy (RA) curves.

Attenuation removes spectrum bins by their Euclidean distance from the DC
bin of the centered spectrum, with the distance clamped at
r_max = floor(min(h, w)/2) so corner bins count as r_max. Low mode removes
d < r (low frequencies go first), high mode removes d > r_max - r; bins
exactly at the cutoff always survive, and r = 0 is an exact identity in both
modes. The keep mask is built on the centered grid and moved into numpy's
FFT bin order, so the batch's spectrum is never shifted. An RA sweep takes
each batch's spectrum once and filters every radius from it.
"""

from __future__ import annotations

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


def _filtered(spectrum: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """The images whose spectrum keeps only `keep`, clipped to [0, 1], as float32."""
    return np.clip(np.fft.ifft2(spectrum * keep).real, 0.0, 1.0).astype(np.float32)


def attenuate_images(images: np.ndarray, mode: str, r: int) -> np.ndarray:
    """Remove one distance band from every channel's spectrum (low mode:
    d < r, high mode: d > r_max - r) and return the images, clipped to
    [0, 1], as float32."""
    images = np.asarray(images)
    [keep] = _keep_masks(images.shape, mode, [r])
    return _filtered(np.fft.fft2(images), keep)


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

    def sweep(x):
        # one spectrum per batch, filtered at each radius in turn, so a
        # filtered copy of the set never exists whole; every model scores
        # each filtered batch
        spectrum = np.fft.fft2(x)
        return (_filtered(spectrum, keep) for keep in keeps)

    accs = batched_accuracy(models, clean_test.images, clean_test.labels, views=sweep)
    return [RACurve(mode=mode, points=[(int(r), row[i]) for r, row in zip(radii, accs)],
                    model_id=model.spec.to_string())
            for i, model in enumerate(models)]


def write_ra_curves_svg(curves: list[RACurve], path):
    series = [(f"{c.model_id or 'model'} {c.mode}", [(r, a) for r, a in c.points]) for c in curves]
    line_plot(series, "frequency attenuation", path, "attenuation radius r", "accuracy")
