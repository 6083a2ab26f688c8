"""Frequency-domain attenuation diagnostics and kernel-level heatmaps.

Images are transformed per channel to a centered 2-D spectrum; attenuation
removes bins by their Euclidean distance from the DC bin, with the distance
field clamped at r_max = floor(min(h, w)/2) so corner bins count as r_max.
Low mode removes d < r (low frequencies go first), high mode removes
d > r_max - r; bins exactly at the cutoff always survive, and r = 0 is an
exact identity in both modes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import ImageSet
from .metrics import batched_accuracy
from .models import Layer, Model
from .svg import line_plot


@dataclass
class Spectrum:
    """Complex per-channel spectrum with the DC bin at (h//2, w//2)."""

    data: np.ndarray  # (..., h, w) complex
    h: int
    w: int


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

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write("mode,r,accuracy\n")
            for r, acc in self.points:
                fh.write(f"{self.mode},{r},{acc!r}\n")


@dataclass
class KernelHeatmap:
    layer: str
    kind: str  # "count"
    matrix: np.ndarray  # (c_out, c_in)

    def total(self) -> float:
        return float(self.matrix.sum())

    def write_csv(self, path):
        with open(path, "w") as fh:
            for row in self.matrix:
                fh.write(",".join(repr(v.item()) for v in row) + "\n")


def dft2_centered(image: np.ndarray) -> Spectrum:
    """Per-channel 2-D DFT with quadrants swapped so DC sits at the center."""
    image = np.asarray(image)
    if image.ndim < 2 or image.shape[-2] < 2 or image.shape[-1] < 2:
        raise ValueError(f"dft2_centered needs spatial dims >= 2, got {image.shape}")
    spec = np.fft.fftshift(np.fft.fft2(image, axes=(-2, -1)), axes=(-2, -1))
    return Spectrum(spec, image.shape[-2], image.shape[-1])


def idft2(spectrum: Spectrum, clip: bool = True) -> np.ndarray:
    """Invert dft2_centered; real part, clipped to [0, 1] unless clip=False."""
    img = np.fft.ifft2(np.fft.ifftshift(spectrum.data, axes=(-2, -1)), axes=(-2, -1)).real
    if clip:
        img = np.clip(img, 0.0, 1.0)
    return img


def _distance_field(h: int, w: int) -> tuple[np.ndarray, int]:
    cy, cx = h // 2, w // 2
    yy, xx = np.mgrid[0:h, 0:w]
    d = np.sqrt((yy - cy) ** 2 + (xx - cx) ** 2)
    r_max = min(h, w) // 2
    return np.minimum(d, r_max), r_max


def attenuate(spectrum: Spectrum, mode: str, r: int) -> Spectrum:
    """Zero out a distance band: mode="low" removes d < r, mode="high"
    removes d > r_max - r. Larger r removes more in both modes."""
    if mode not in ("low", "high"):
        raise ValueError(f"attenuate mode must be 'low' or 'high', got {mode!r}")
    d, r_max = _distance_field(spectrum.h, spectrum.w)
    if not 0 <= r <= r_max:
        raise ValueError(f"attenuate: r {r} outside [0, {r_max}]")
    if mode == "low":
        keep = d >= r
    else:
        keep = d <= r_max - r
    return Spectrum(spectrum.data * keep, spectrum.h, spectrum.w)


def attenuate_images(images: np.ndarray, mode: str, r: int) -> np.ndarray:
    """dft -> attenuate -> idft for a batch, clipped for model consumption."""
    spec = dft2_centered(images)
    return idft2(attenuate(spec, mode, r)).astype(np.float32)


def ra_curve(model: Model, clean_test: ImageSet, mode: str, radii,
             batch_size: int = 512) -> RACurve:
    """Accuracy after frequency attenuation, one point per radius."""
    radii = list(radii)
    if not radii:
        raise ValueError("ra_curve needs at least one radius")
    points = []
    for r in radii:
        # attenuate one batch at a time, so a filtered copy of the set never exists whole
        acc = batched_accuracy(model, clean_test.images, clean_test.labels, batch_size,
                               transform=lambda x: attenuate_images(x, mode, r))
        points.append((int(r), acc))
    return RACurve(mode=mode, points=points, model_id=model.spec.to_string())


def write_ra_curves_svg(curves: list[RACurve], path, title: str = "frequency attenuation"):
    series = [(f"{c.model_id or 'model'} {c.mode}", [(r, a) for r, a in c.points]) for c in curves]
    line_plot(series, title, path, x_label="attenuation radius r", y_label="accuracy")


def kernel_nonzero_counts(layer: Layer, mask: np.ndarray) -> KernelHeatmap:
    """(c_out, c_in) grid of active-position counts per kernel."""
    if layer.kind != "conv":
        raise TypeError(f"kernel heatmaps need a conv layer, {layer.name} is {layer.kind}")
    if mask.shape != layer.weight.data.shape:
        raise ValueError(f"mask shape {mask.shape} does not match layer {layer.weight.data.shape}")
    return KernelHeatmap(layer.name, "count", mask.reshape(mask.shape[0], mask.shape[1], -1)
                         .sum(axis=2).astype(np.int64))
