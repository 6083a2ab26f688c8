"""Dataset ingestion and persistence in the canonical public binary formats.

This module alone knows the two file layouts. IDX files hold 1-channel
images as blocks, each a big-endian header (magic 0x00000803 for images,
0x00000801 for labels) and the bytes its sizes count (`_idx_header`);
CIFAR-style records (1 label byte + 3072 pixel bytes) hold 3x32x32 ones.
Persisted sets take the layout their image shape fits: 1-channel sets as a
single file holding the IDX images block followed by the labels block,
3x32x32 sets as plain record files.

Every loader reads through `_read_split`, which reads each file's body
straight into its rows of the split's one uint8 array. A run keeps those
bytes (`load_split`) and converts each batch with `_unit_floats`; an
`ImageSet` (for corruption, spectral code and scoring) holds the float32
pixels of that same conversion, so both give the same bytes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
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


class _DataFile(io.BufferedReader):
    """A dataset file opened once and read front to back into arrays, which
    it keeps, so `digest` names the file's bytes without a second read."""

    def __init__(self, path):
        try:
            super().__init__(open(path, "rb").detach())  # its raw file, buffered here
        except FileNotFoundError:
            raise DataError(f"dataset file not found: {path}") from None
        except OSError as e:
            raise DataError(f"cannot read {path}: {e.strerror}") from None
        self.size, self.parts = os.fstat(self.fileno()).st_size, []

    def fill(self, out: np.ndarray, what: str | None = None) -> int:
        """Read `out` from the file's position; the count of bytes read. A
        block body of `what` bytes that the file cuts short is a DataError."""
        start, got = self.tell(), self.readinto(out)
        if what and got < out.nbytes:
            raise DataError(f"{self.name}: expected {out.nbytes} {what} bytes at offset {start}, "
                            f"found {got}")
        self.parts.append(out)
        return got

    def digest(self) -> str:
        """SHA-256 of the file: the bytes read, then the rest of it."""
        h = hashlib.sha256()
        for part in self.parts:
            h.update(part)
        while chunk := self.read1():
            h.update(chunk)
        return h.hexdigest()


def sha256_file(path) -> str:
    """SHA-256 hex digest of a file's content."""
    with _DataFile(path) as f:
        return f.digest()


def _idx_header(f: _DataFile, kind: str) -> list[int]:
    """The sizes in the header of the IDX `kind` ("image" | "label") block
    at `f`'s position, which its body follows: [n, h, w] or [n], as many as
    the magic's last byte counts."""
    magic = IDX_IMAGES_MAGIC if kind == "image" else IDX_LABELS_MAGIC
    head, offset = np.empty(1 + (magic & 0xFF), ">u4"), f.tell()
    if (got := f.fill(head)) < head.nbytes:
        raise DataError(f"{f.name}: truncated IDX header, {got} bytes at offset {offset}")
    found, *sizes = head.tolist()
    if found != magic:
        raise DataError(f"{f.name}: bad IDX {kind} magic 0x{found:08x} at offset {offset}, "
                        f"expected 0x{magic:08x}")
    return sizes


def _images_header(fmt: str, f: _DataFile) -> tuple[int, tuple[int, int, int]]:
    """Image count and (c, h, w) of the `fmt` images file `f`, from its IDX
    header or its size in CIFAR records."""
    if fmt == "idx":
        n, h, w = _idx_header(f, "image")
        return n, (1, h, w)
    if f.size == 0 or f.size % CIFAR_RECORD:
        raise DataError(f"{f.name}: size {f.size} is not a multiple of {CIFAR_RECORD}-byte records")
    return f.size // CIFAR_RECORD, (3, 32, 32)


def image_file_shape(path, fmt: str) -> tuple[int, tuple[int, int, int]]:
    """Image count and (c, h, w) of one `fmt` ("idx" | "cifar") images file,
    read from its IDX header or its size alone, under the loaders' checks."""
    with _DataFile(path) as f:
        return _images_header(fmt, f)


def _read_rows(fmt: str, files: list[_DataFile], n: int, rows: list[np.ndarray]):
    """Read one file pair's `n` images, after its images header, into `rows`:
    CIFAR records, or IDX pixels and labels (whose file may be the images')."""
    files[0].fill(rows[0], "record" if fmt == "cifar" else "image")
    if fmt == "idx":
        (m,) = _idx_header(files[1], "label")
        if m != n:
            raise DataError(f"{files[0].name}: {n} images but {m} labels")
        files[1].fill(rows[1], "label")


def _read_split(fmt: str, pairs: list, heads: list, classes: int | None = None
                ) -> tuple[np.ndarray, np.ndarray]:
    """uint8 pixels (n, c, h, w) and int64 labels of the open file `pairs`,
    whose images headers are `heads`, read in order into one array. Each
    pair's labels are checked against `classes` unless it is None."""
    (_, shape), n = heads[0], sum(k for k, _ in heads)
    if any(s != shape for _, s in heads):
        raise DataError(f"{pairs[0][0].name}: the split's files hold images of shapes "
                        f"{[s for _, s in heads]}")
    if fmt == "cifar":
        rec = np.empty((n, CIFAR_RECORD), np.uint8)
        arrays, pixels, labels = (rec,), rec[:, 1:].reshape(n, *shape), rec[:, 0]
    else:
        arrays = pixels, labels = np.empty((n, *shape), np.uint8), np.empty(n, np.uint8)
    at = 0
    for files, (k, _) in zip(pairs, heads):
        _read_rows(fmt, files, k, [a[at:at + k] for a in arrays])
        if classes is not None and (outside := labels[at:at + k] >= classes).any():
            bad = int(np.argmax(outside))
            raise DataError(f"{files[-1].name}: label {int(labels[at + bad])} outside "
                            f"[0, {classes}) at record {bad}")
        at += k
    return pixels, labels.astype(np.int64)


def load_split(fmt: str, images_paths, labels_paths, classes: int,
               digests: dict | None = None) -> tuple[np.ndarray, np.ndarray]:
    """One split of a run's data as uint8 pixels (n, c, h, w) and int64
    labels: the `fmt` ("idx" | "cifar") files in order, IDX images paired
    with `labels_paths`, each label checked against `classes`. `digests`,
    when given, gets each path's SHA-256 of the bytes read."""
    pairs = zip(images_paths, labels_paths, strict=True) if fmt == "idx" else zip(images_paths)
    with contextlib.ExitStack() as stack:
        files = [[stack.enter_context(_DataFile(p)) for p in pair] for pair in pairs]
        split = _read_split(fmt, files, [_images_header(fmt, f[0]) for f in files], classes)
        if digests is not None:
            digests.update((f.name, f.digest()) for pair in files for f in pair)
    return split


def guess_idx_labels_path(images_path: str) -> str | None:
    base = os.path.basename(images_path)
    if "images" not in base:
        return None
    cand = os.path.join(os.path.dirname(images_path),
                        base.replace("images", "labels").replace("idx3", "idx1"))
    return cand if os.path.exists(cand) else None


def load_idx(images_path, labels_path, name: str | None = None, classes: int = 10) -> ImageSet:
    """Load an IDX image/label pair."""
    pixels, labels = load_split("idx", [images_path], [labels_path], classes)
    return ImageSet(_unit_floats(pixels), labels, name or _stem(images_path))


def load_cifar_binary(paths: list, name: str | None = None, classes: int = 10) -> ImageSet:
    """Load a list of CIFAR batch files, concatenated in list order."""
    pixels, labels = load_split("cifar", paths, (), classes)
    return ImageSet(_unit_floats(pixels), labels, name or _stem(paths[0]))


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
    with contextlib.ExitStack() as stack:
        f = stack.enter_context(_DataFile(path))
        fmt = "idx" if f.peek(4)[:4] == IDX_IMAGES_MAGIC.to_bytes(4, "big") else "cifar"
        if fmt == "cifar" and (f.size == 0 or f.size % CIFAR_RECORD):
            raise DataError(f"{path}: neither an IDX block (magic at offset 0) nor whole "
                            f"{CIFAR_RECORD}-byte CIFAR records (size {f.size})")
        head = n, (_, h, w) = _images_header(fmt, f)
        files = [f] if fmt == "cifar" else [f, f]
        if fmt == "idx" and f.size == f.tell() + n * h * w:  # a raw images file
            labels_path = guess_idx_labels_path(str(path))
            if labels_path is None:
                raise DataError(f"{path}: cannot infer labels file; it is found beside the "
                                f"images file, named with 'labels' for 'images'")
            files[1] = stack.enter_context(_DataFile(labels_path))
        pixels, labels = _read_split(fmt, [files], [head])
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
