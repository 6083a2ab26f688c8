"""Dataset ingestion and persistence in the canonical public binary formats.

This module alone knows the two file layouts. IDX files (big-endian magic
0x00000803 for images, 0x00000801 for labels) hold 1-channel images;
CIFAR-style records (1 label byte + 3072 pixel bytes) hold 3x32x32 ones.
Persisted sets take the layout their image shape fits: 1-channel sets as a
single file holding the IDX images block followed by the labels block,
3x32x32 sets as plain record files.

An `ImageSet` holds float32 pixels, which is what corruption, spectral code
and scoring take. A training run holds its splits as the files' own bytes
instead (`load_split`), a quarter of the floats' size, and converts each
batch with `_unit_floats` when it needs it; that one conversion builds every
float pixel either way, so both give the same bytes.
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


def _idx_arrays(images: np.ndarray, labels: np.ndarray, images_path) -> tuple[np.ndarray, np.ndarray]:
    """An IDX pair's uint8 pixels (n, 1, h, w), a view of `images`, and int64 labels."""
    if images.shape[0] != labels.shape[0]:
        raise DataError(f"{images_path}: {images.shape[0]} images but {labels.shape[0]} labels")
    n, h, w = images.shape
    return images.reshape(n, 1, h, w), labels.astype(np.int64)


def load_idx(images_path, labels_path, name: str | None = None, classes: int = 10) -> ImageSet:
    """Load an IDX image/label pair."""
    pixels, labels = load_split("idx", [images_path], [labels_path], classes)
    return ImageSet(_unit_floats(pixels), labels, name or _stem(images_path))


def load_cifar_binary(paths: list, name: str | None = None, classes: int = 10) -> ImageSet:
    """Load a list of CIFAR batch files, concatenated in list order."""
    pixels, labels = load_split("cifar", paths, (), classes)
    return ImageSet(_unit_floats(pixels), labels, name or _stem(paths[0]))


def _cifar_arrays(bufs, paths) -> tuple[np.ndarray, np.ndarray]:
    """The uint8 pixels (n, 3, 32, 32) and int64 labels of the CIFAR records
    in `bufs`, the contents of `paths` in order. The pixels of a single file
    are a view of its buffer; several files' are joined into one array."""
    chunks, labels = [], []
    for buf, path in zip(bufs, paths):
        _cifar_records(len(buf), path)
        rec = np.frombuffer(buf, dtype=np.uint8).reshape(-1, CIFAR_RECORD)
        labels.append(rec[:, 0])
        chunks.append(rec[:, 1:].reshape(-1, 3, 32, 32))
    pixels = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
    return pixels, np.concatenate(labels).astype(np.int64)


def load_split(fmt: str, images_paths, labels_paths, classes: int,
               digests: dict | None = None) -> tuple[np.ndarray, np.ndarray]:
    """One split of a run's data as uint8 pixels (n, c, h, w) and int64
    labels: the `fmt` ("idx" | "cifar") files concatenated in order, IDX
    images paired with `labels_paths`, each label checked against `classes`.
    A single file's pixels are a view of the bytes read, and no float copy
    is made: `_unit_floats` converts a batch of them when one is needed.
    Each file is read once; `digests`, when given, gets each path's SHA-256
    of the bytes parsed, so a run names exactly the bytes it trained on."""
    def read(path) -> bytes:
        buf = _read_file(path)
        if digests is not None:
            digests[path] = hashlib.sha256(buf).hexdigest()
        return buf

    if fmt == "cifar":
        pixels, labels = _cifar_arrays(map(read, images_paths), images_paths)
        _check_labels(labels, classes, images_paths[0])
        return pixels, labels
    parts = []
    for images_path, labels_path in zip(images_paths, labels_paths, strict=True):
        images, _ = _idx_images_from(read(images_path), images_path)
        labels, _ = _idx_labels_from(read(labels_path), labels_path)
        pixels, labels = _idx_arrays(images, labels, images_path)
        _check_labels(labels, classes, labels_path)
        parts.append((pixels, labels))
    if len(parts) == 1:
        return parts[0]
    pixels, labels = zip(*parts)
    return np.concatenate(pixels), np.concatenate(labels)


def _stem(path) -> str:
    """File name without its last extension."""
    return os.path.basename(str(path)).rsplit(".", 1)[0]


def _unit_floats(pixels: np.ndarray) -> np.ndarray:
    """uint8 pixels as float32 in [0, 1], divided in place: one float copy.
    Each pixel converts on its own, so a batch gathered from the bytes gives
    the bytes of the same batch gathered from the whole set's floats."""
    images = pixels.astype(np.float32)
    images /= 255.0
    return images


def _quantize(images: np.ndarray) -> np.ndarray:
    """Pixels in [0, 1] to C-ordered uint8: clip into one new array, then
    scale and round it in place."""
    q = np.clip(images, 0.0, 1.0)
    q *= 255.0
    np.rint(q, out=q)
    return q.astype(np.uint8, order="C")


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
    # the file gets the arrays' own buffers, not a joined copy of them
    if c == 1:
        parts = (struct.pack(">IIII", IDX_IMAGES_MAGIC, n, h, w), imgs,
                 struct.pack(">II", IDX_LABELS_MAGIC, n), labels)
    elif (c, h, w) == (3, 32, 32):
        parts = (np.concatenate([labels[:, None], imgs.reshape(n, -1)], axis=1),)
    else:
        raise DataError(f"{path}: {c}x{h}x{w} images fit neither layout: IDX holds "
                        f"1-channel images, CIFAR records 3x32x32 ones")
    with atomic_write(path, "wb") as fh:
        for part in parts:
            fh.write(part)


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
        pixels, labels = _idx_arrays(images, labels, path)
    elif len(buf) and len(buf) % CIFAR_RECORD == 0:
        pixels, labels = _cifar_arrays([buf], [path])
    else:
        raise DataError(f"{path}: neither an IDX block (magic at offset 0) nor whole "
                        f"{CIFAR_RECORD}-byte CIFAR records (size {len(buf)})")
    return ImageSet(_unit_floats(pixels), labels, _stem(path))


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
