"""Dataset ingestion and persistence in the canonical public binary formats.

This module alone knows the two file layouts. IDX files (big-endian magic
0x00000803 for images, 0x00000801 for labels) hold 1-channel images;
CIFAR-style records (1 label byte + 3072 pixel bytes) hold 3x32x32 ones.
Persisted sets take the layout their image shape fits: 1-channel sets as a
single file holding the IDX images block followed by the labels block,
3x32x32 sets as plain record files.
"""

from __future__ import annotations

import contextlib
import hashlib
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

    def __post_init__(self):
        if self.images.ndim != 4:
            raise DataError(f"ImageSet images must be (n, c, h, w), got {self.images.shape}")
        if self.labels.shape != (self.images.shape[0],):
            raise DataError(
                f"ImageSet has {self.images.shape[0]} images but {self.labels.shape} labels")

    def __len__(self):
        return self.images.shape[0]


def _read_file(path) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        raise DataError(f"dataset file not found: {path}") from None
    except OSError as e:
        raise DataError(f"cannot read {path}: {e.strerror}") from None


def sha256_file(path) -> str:
    """SHA-256 hex digest of a file's content, read 1 MiB at a time."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            h.update(chunk)
    return h.hexdigest()


def _idx_images_header(buf: bytes, path, offset: int = 0) -> tuple[int, int, int]:
    if len(buf) - offset < 16:
        raise DataError(f"{path}: truncated IDX header, {len(buf) - offset} bytes at offset {offset}")
    magic, n, h, w = struct.unpack_from(">IIII", buf, offset)
    if magic != IDX_IMAGES_MAGIC:
        raise DataError(f"{path}: bad IDX image magic 0x{magic:08x} at offset {offset}, "
                        f"expected 0x{IDX_IMAGES_MAGIC:08x}")
    return n, h, w


def _idx_images_from(buf: bytes, path, offset: int = 0) -> tuple[np.ndarray, int]:
    n, h, w = _idx_images_header(buf, path, offset)
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


def _cifar_records(size: int, path) -> int:
    if size == 0 or size % CIFAR_RECORD:
        raise DataError(f"{path}: size {size} is not a multiple of {CIFAR_RECORD}-byte records")
    return size // CIFAR_RECORD


def image_file_shape(path, fmt: str) -> tuple[int, tuple[int, int, int]]:
    """Image count and (c, h, w) of one `fmt` ("idx" | "cifar") images file,
    read from its IDX header or its size alone, under the loaders' checks."""
    if fmt == "idx":
        with open(path, "rb") as fh:
            n, h, w = _idx_images_header(fh.read(16), path)
        return n, (1, h, w)
    return _cifar_records(os.path.getsize(path), path), (3, 32, 32)


def guess_idx_labels_path(images_path: str) -> str | None:
    base = os.path.basename(images_path)
    if "images" not in base:
        return None
    cand = os.path.join(os.path.dirname(images_path),
                        base.replace("images", "labels").replace("idx3", "idx1"))
    return cand if os.path.exists(cand) else None


def _idx_set(images: np.ndarray, labels: np.ndarray, images_path, name: str | None) -> ImageSet:
    if images.shape[0] != labels.shape[0]:
        raise DataError(f"{images_path}: {images.shape[0]} images but {labels.shape[0]} labels")
    n, h, w = images.shape
    return ImageSet(_unit_floats(images).reshape(n, 1, h, w), labels.astype(np.int64),
                    name or _stem(images_path))


def load_idx(images_path, labels_path, name: str | None = None, classes: int = 10) -> ImageSet:
    """Load an IDX image/label pair."""
    images, _ = _idx_images_from(_read_file(images_path), images_path)
    labels, _ = _idx_labels_from(_read_file(labels_path), labels_path)
    s = _idx_set(images, labels, images_path, name)
    _check_labels(s.labels, classes, labels_path)
    return s


def load_cifar_binary(paths: list, name: str | None = None, classes: int = 10) -> ImageSet:
    """Load a list of CIFAR batch files, concatenated in list order."""
    s = _cifar_set(map(_read_file, paths), paths, name)
    _check_labels(s.labels, classes, paths[0])
    return s


def _cifar_set(bufs, paths: list, name: str | None) -> ImageSet:
    """One set of the CIFAR records in `bufs`, the contents of `paths` in order."""
    chunks, labels = [], []
    for buf, path in zip(bufs, paths):
        _cifar_records(len(buf), path)
        rec = np.frombuffer(buf, dtype=np.uint8).reshape(-1, CIFAR_RECORD)
        labels.append(rec[:, 0])
        chunks.append(rec[:, 1:].reshape(-1, 3, 32, 32))
    return ImageSet(
        images=_unit_floats(np.concatenate(chunks)),
        labels=np.concatenate(labels).astype(np.int64),
        name=name or _stem(paths[0]),
    )


def load_split(fmt: str, images_paths, labels_paths, name: str, classes: int) -> ImageSet:
    """One split of a run's data: the `fmt` files concatenated in order, a
    single file used as loaded; IDX images pair with `labels_paths`."""
    if fmt == "cifar":
        return load_cifar_binary(list(images_paths), name=name, classes=classes)
    parts = [load_idx(img, lab, name=name, classes=classes)
             for img, lab in zip(images_paths, labels_paths, strict=True)]
    if len(parts) == 1:
        return parts[0]
    return ImageSet(np.concatenate([p.images for p in parts]),
                    np.concatenate([p.labels for p in parts]), name)


def _stem(path) -> str:
    """File name without its last extension."""
    return os.path.basename(str(path)).rsplit(".", 1)[0]


def _unit_floats(pixels: np.ndarray) -> np.ndarray:
    """uint8 pixels as float32 in [0, 1], divided in place: one float copy."""
    images = pixels.astype(np.float32)
    images /= 255.0
    return images


def _quantize(images: np.ndarray) -> np.ndarray:
    """Pixels in [0, 1] to uint8: clip into one new array, then scale and
    round it in place."""
    q = np.clip(images, 0.0, 1.0)
    q *= 255.0
    np.rint(q, out=q)
    return q.astype(np.uint8)


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
    """Persist in the layout the image shape fits (see module docstring)."""
    imgs, labels = _quantize(s.images), s.labels.astype(np.uint8)
    n, c, h, w = imgs.shape
    if c == 1:
        payload = (struct.pack(">IIII", IDX_IMAGES_MAGIC, n, h, w) + imgs.tobytes()
                   + struct.pack(">II", IDX_LABELS_MAGIC, n) + labels.tobytes())
    elif (c, h, w) == (3, 32, 32):
        payload = np.concatenate([labels[:, None], imgs.reshape(n, -1)], axis=1).tobytes()
    else:
        raise DataError(f"{path}: {c}x{h}x{w} images fit neither layout: IDX holds "
                        f"1-channel images, CIFAR records 3x32x32 ones")
    with atomic_write(path, "wb") as fh:
        fh.write(payload)


def load_image_set(path) -> ImageSet:
    """Load a persisted set or a raw images file, read once, sniffing the layout
    from its leading bytes. An IDX images block that ends the file takes its
    labels from the file beside it, found by `guess_idx_labels_path`. Labels
    are not checked against a class count here: the model that scores the
    set does that (`metrics.batched_accuracy`)."""
    buf = _read_file(path)
    if len(buf) >= 4 and struct.unpack_from(">I", buf)[0] == IDX_IMAGES_MAGIC:
        images, off = _idx_images_from(buf, path)
        labels_path = path
        if off == len(buf):  # a raw images file
            labels_path = guess_idx_labels_path(str(path))
            if labels_path is None:
                raise DataError(f"{path}: cannot infer labels file; it is found beside the "
                                f"images file, named with 'labels' for 'images'")
            buf, off = _read_file(labels_path), 0
        labels, _ = _idx_labels_from(buf, labels_path, off)
        return _idx_set(images, labels, path, None)
    if len(buf) and len(buf) % CIFAR_RECORD == 0:
        return _cifar_set([buf], [path], None)
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
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as e:
        raise DataError(f"cannot make directory {out_dir}: {e.strerror}") from None
    paths = []
    for (kind, sev), s in sets.items():
        path = os.path.join(out_dir, corrupted_set_filename(base, kind, sev))
        save_image_set(s, path)
        paths.append(path)
    return paths
