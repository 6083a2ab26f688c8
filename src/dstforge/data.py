"""Dataset ingestion and persistence in the canonical public binary formats.

IDX files (big-endian magic 0x00000803 for images, 0x00000801 for labels) and
CIFAR-style records (1 label byte + 3072 pixel bytes) are supported. Corrupted
sets persist in the same layout as their source: CIFAR sets as plain record
files, IDX sets as a single file holding the images block followed by the
labels block.
"""

from __future__ import annotations

import contextlib
import os
import struct
from dataclasses import dataclass

import numpy as np

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
CIFAR_RECORD = 3073  # 1 label byte + 32*32*3 pixels


class DataError(Exception):
    """Malformed or inconsistent dataset content."""


@dataclass
class ImageSet:
    """A labeled image collection; pixels float32 in [0, 1], layout (n, c, h, w)."""

    images: np.ndarray
    labels: np.ndarray
    name: str = "dataset"
    fmt: str = "idx"  # persistence layout: "idx" | "cifar"

    def __post_init__(self):
        if self.images.ndim != 4:
            raise DataError(f"ImageSet images must be (n, c, h, w), got {self.images.shape}")
        if self.labels.shape != (self.images.shape[0],):
            raise DataError(
                f"ImageSet has {self.images.shape[0]} images but {self.labels.shape} labels")
        if self.fmt not in ("idx", "cifar"):
            raise DataError(f"unknown ImageSet format {self.fmt!r}")

    def __len__(self):
        return self.images.shape[0]


def _read_file(path) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        raise DataError(f"dataset file not found: {path}") from None


def _idx_images_from(buf: bytes, path, offset: int = 0) -> tuple[np.ndarray, int]:
    if len(buf) - offset < 16:
        raise DataError(f"{path}: truncated IDX header, {len(buf) - offset} bytes at offset {offset}")
    magic, n, h, w = struct.unpack_from(">IIII", buf, offset)
    if magic != IDX_IMAGES_MAGIC:
        raise DataError(f"{path}: bad IDX image magic 0x{magic:08x} at offset {offset}, "
                        f"expected 0x{IDX_IMAGES_MAGIC:08x}")
    need = n * h * w
    start = offset + 16
    if len(buf) - start < need:
        raise DataError(f"{path}: expected {need} image bytes at offset {start}, "
                        f"found {len(buf) - start}")
    data = np.frombuffer(buf, dtype=np.uint8, count=need, offset=start).reshape(n, h, w)
    return data, start + need


def _idx_labels_from(buf: bytes, path, offset: int = 0) -> tuple[np.ndarray, int]:
    if len(buf) - offset < 8:
        raise DataError(f"{path}: truncated IDX header, {len(buf) - offset} bytes at offset {offset}")
    magic, n = struct.unpack_from(">II", buf, offset)
    if magic != IDX_LABELS_MAGIC:
        raise DataError(f"{path}: bad IDX label magic 0x{magic:08x} at offset {offset}, "
                        f"expected 0x{IDX_LABELS_MAGIC:08x}")
    start = offset + 8
    if len(buf) - start < n:
        raise DataError(f"{path}: expected {n} label bytes at offset {start}, "
                        f"found {len(buf) - start}")
    return np.frombuffer(buf, dtype=np.uint8, count=n, offset=start), start + n


def _check_labels(labels: np.ndarray, classes: int, path):
    if labels.size and int(labels.max()) >= classes:
        bad = int(np.argmax(labels >= classes))
        raise DataError(f"{path}: label {int(labels[bad])} outside [0, {classes}) at record {bad}")


def guess_idx_labels_path(images_path: str) -> str | None:
    base = os.path.basename(images_path)
    if "images" not in base:
        return None
    cand = os.path.join(os.path.dirname(images_path),
                        base.replace("images", "labels").replace("idx3", "idx1"))
    return cand if os.path.exists(cand) else None


def load_idx(images_path, labels_path=None, name: str | None = None, classes: int = 10) -> ImageSet:
    """Load an IDX image/label pair. With the canonical *-images-idx3-ubyte
    naming the labels file is found automatically."""
    if labels_path is None:
        labels_path = guess_idx_labels_path(str(images_path))
        if labels_path is None:
            raise DataError(f"{images_path}: cannot infer labels file, pass labels_path")
    images, _ = _idx_images_from(_read_file(images_path), images_path)
    labels, _ = _idx_labels_from(_read_file(labels_path), labels_path)
    if images.shape[0] != labels.shape[0]:
        raise DataError(f"{images_path}: {images.shape[0]} images but {labels.shape[0]} labels")
    _check_labels(labels, classes, labels_path)
    n, h, w = images.shape
    return ImageSet(
        images=(images.astype(np.float32) / 255.0).reshape(n, 1, h, w),
        labels=labels.astype(np.int64),
        name=name or _stem(images_path),
        fmt="idx",
    )


def load_cifar_binary(paths, name: str | None = None, classes: int = 10) -> ImageSet:
    """Load one or more CIFAR batch files (concatenated in argument order)."""
    if isinstance(paths, (str, os.PathLike)):
        paths = [paths]
    chunks, labels = [], []
    for path in paths:
        buf = _read_file(path)
        if len(buf) == 0 or len(buf) % CIFAR_RECORD:
            raise DataError(f"{path}: size {len(buf)} is not a multiple of {CIFAR_RECORD}-byte records")
        rec = np.frombuffer(buf, dtype=np.uint8).reshape(-1, CIFAR_RECORD)
        labels.append(rec[:, 0])
        chunks.append(rec[:, 1:].reshape(-1, 3, 32, 32))
    images = np.concatenate(chunks)
    labels = np.concatenate(labels)
    _check_labels(labels, classes, paths[0])
    return ImageSet(
        images=images.astype(np.float32) / 255.0,
        labels=labels.astype(np.int64),
        name=name or _stem(paths[0]),
        fmt="cifar",
    )


def _stem(path) -> str:
    base = os.path.basename(str(path))
    return base.split(".")[0]


def _quantize(images: np.ndarray) -> np.ndarray:
    return np.rint(np.clip(images, 0.0, 1.0) * 255.0).astype(np.uint8)


@contextlib.contextmanager
def atomic_write(path, mode: str = "w"):
    """Open `path` for writing so that it only ever appears whole: the block
    writes `<path>.tmp`, which is synced to disk and renamed over `path` on a
    normal exit and removed on an exception. Readers that trust a file's
    presence (finished runs, cached corrupted sets) never see a partial
    write, also after an OS crash."""
    path = os.fspath(path)
    tmp = path + ".tmp"
    try:
        with open(tmp, mode) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def save_image_set(s: ImageSet, path):
    """Persist in the set's source layout (see module docstring)."""
    if s.fmt == "cifar":
        imgs = _quantize(s.images)
        if imgs.shape[1:] != (3, 32, 32):
            raise DataError(f"cifar layout requires (n, 3, 32, 32) images, got {imgs.shape}")
        rec = np.empty((imgs.shape[0], CIFAR_RECORD), dtype=np.uint8)
        rec[:, 0] = s.labels.astype(np.uint8)
        rec[:, 1:] = imgs.reshape(imgs.shape[0], -1)
        payload = rec.tobytes()
    else:
        imgs = _quantize(s.images)
        n, c, h, w = imgs.shape
        if c != 1:
            raise DataError(f"idx layout stores single-channel images, got {c} channels")
        payload = (struct.pack(">IIII", IDX_IMAGES_MAGIC, n, h, w) + imgs.tobytes()
                   + struct.pack(">II", IDX_LABELS_MAGIC, n) + s.labels.astype(np.uint8).tobytes())
    with atomic_write(path, "wb") as fh:
        fh.write(payload)


def load_image_set(path, name: str | None = None, classes: int = 10) -> ImageSet:
    """Load a persisted set, sniffing the layout from the leading bytes."""
    buf = _read_file(path)
    if len(buf) >= 4 and struct.unpack_from(">I", buf)[0] == IDX_IMAGES_MAGIC:
        images, off = _idx_images_from(buf, path)
        labels, off = _idx_labels_from(buf, path, off)
        if images.shape[0] != labels.shape[0]:
            raise DataError(f"{path}: {images.shape[0]} images but {labels.shape[0]} labels")
        _check_labels(labels, classes, path)
        n, h, w = images.shape
        return ImageSet((images.astype(np.float32) / 255.0).reshape(n, 1, h, w),
                        labels.astype(np.int64), name or _stem(path), "idx")
    if len(buf) and len(buf) % CIFAR_RECORD == 0:
        return load_cifar_binary(path, name=name, classes=classes)
    raise DataError(f"{path}: neither an IDX block (magic at offset 0) nor whole "
                    f"{CIFAR_RECORD}-byte CIFAR records (size {len(buf)})")


def corrupted_set_filename(base: str, kind: str, severity: int) -> str:
    return f"{base}-{kind}-s{severity}.bin"


def parse_corrupted_set_filename(path) -> tuple[str, str, int]:
    """(base, kind, severity) from `<base>-<kind>-s<severity>.bin`; files not
    matching the pattern come back as (stem, stem, 0)."""
    stem = os.path.basename(str(path)).removesuffix(".bin")
    parts = stem.rsplit("-", 2)
    if len(parts) == 3 and parts[2].startswith("s") and parts[2][1:].isdigit():
        return parts[0], parts[1], int(parts[2][1:])
    return stem, stem, 0


def write_corrupted_sets(sets: dict, out_dir, base: str) -> list[str]:
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for (kind, sev), s in sets.items():
        path = os.path.join(out_dir, corrupted_set_filename(base, kind, sev))
        save_image_set(s, path)
        paths.append(path)
    return paths
