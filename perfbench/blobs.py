"""Synthetic inputs: the blob task of tests/conftest.py at real input shapes.

A label k in [0, 10) lights a 2x2 blob at a fixed position over uniform noise
in [0, 0.3), in every channel. Files are written in the formats dstforge
reads: IDX image/label pairs for 1x28x28 and CIFAR records for 3x32x32.
"""

from __future__ import annotations

import os
import struct

import numpy as np

CENTERS = [(2 + (k % 5) * 2, 2 + (k // 5) * 6) for k in range(10)]


def make_blob_set(n: int, seed, shape: tuple[int, int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Images (n, c, h, w) float32 in [0, 1] and uint8 labels; the draw order
    follows tests/conftest.py::make_blob_set."""
    r = np.random.default_rng(seed)
    labels = r.integers(0, 10, n).astype(np.uint8)
    imgs = (r.random((n, *shape)) * 0.3).astype(np.float32)
    for i, y in enumerate(labels):
        cy, cx = CENTERS[y]
        imgs[i, :, cy : cy + 2, cx : cx + 2] += 0.7
    return np.clip(imgs, 0.0, 1.0), labels


def quantize(imgs: np.ndarray) -> np.ndarray:
    return np.rint(np.clip(imgs, 0.0, 1.0) * 255).astype(np.uint8)


def write_idx_pair(dir_path: str, prefix: str, imgs: np.ndarray, labels: np.ndarray) -> tuple[str, str]:
    """`<prefix>-images-idx3-ubyte` and `<prefix>-labels-idx1-ubyte` for (n, 1, h, w) images."""
    q = quantize(imgs[:, 0])
    n, h, w = q.shape
    img_path = os.path.join(dir_path, f"{prefix}-images-idx3-ubyte")
    lab_path = os.path.join(dir_path, f"{prefix}-labels-idx1-ubyte")
    with open(img_path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x803, n, h, w))
        fh.write(q.tobytes())
    with open(lab_path, "wb") as fh:
        fh.write(struct.pack(">II", 0x801, n))
        fh.write(labels.tobytes())
    return img_path, lab_path


def write_cifar(path: str, imgs: np.ndarray, labels: np.ndarray) -> str:
    """CIFAR records: one label byte then 3072 pixel bytes in CHW order."""
    q = quantize(imgs)
    rec = np.empty((q.shape[0], 3073), dtype=np.uint8)
    rec[:, 0] = labels
    rec[:, 1:] = q.reshape(q.shape[0], -1)
    with open(path, "wb") as fh:
        fh.write(rec.tobytes())
    return path


def run_config(data: dict, model: str, out_dir: str, seed: int, epochs: int, bs: int,
               lr: float, method: str = "dense", sparsity: float = 0.0,
               delta_t: int = 0) -> str:
    """INI text for `dstforge.config.parse_config`. `data` holds the keys of
    the [data] section; comma-joined lists name several training files."""
    lines = ["[data]", "dataset = blobs", "classes = 10"]
    lines += [f"{k} = {v}" for k, v in data.items()]
    lines += ["", "[train]", f"model = {model}", f"epochs = {epochs}", f"seed = {seed}",
              f"lr = {lr}", f"bs = {bs}", "lrs = step", "wd = 1e-4", "momentum = 0.9",
              "", "[output]", f"dir = {out_dir}"]
    if method != "dense":
        lines += ["", "[dst]", f"method = {method}", f"sparsity = {sparsity}",
                  "sparsity_dist = erk", f"delta_t = {delta_t}", "p = 0.1"]
    return "\n".join(lines) + "\n"
