"""IDX/CIFAR ingestion, persistence round trips, and filename conventions."""

import os
import struct
import tracemalloc

import numpy as np
import pytest

import dstforge.data
from dstforge.data import (
    CIFAR_RECORD,
    DataError,
    ImageSet,
    _unit_floats,
    corrupted_set_filename,
    guess_idx_labels_path,
    load_cifar_binary,
    load_idx,
    load_image_set,
    load_split,
    parse_corrupted_set_filename,
    save_image_set,
    write_corrupted_sets,
)


def toy_images(n=6, c=1, h=5, w=4, seed=0):
    return np.random.default_rng(seed).random((n, c, h, w)).astype(np.float32)


def test_image_set_validation():
    with pytest.raises(DataError):
        ImageSet(images=np.zeros((3, 5, 4), dtype=np.float32),
                 labels=np.zeros(3, dtype=np.int64))
    with pytest.raises(DataError):
        ImageSet(images=toy_images(), labels=np.zeros(5, dtype=np.int64))


def test_load_idx_pair(idx_dir):
    s = load_idx(f"{idx_dir}/train-images-idx3-ubyte",
                 f"{idx_dir}/train-labels-idx1-ubyte")
    assert s.images.shape == (1500, 1, 12, 12)
    assert s.images.dtype == np.float32
    assert 0.0 <= s.images.min() and s.images.max() <= 1.0
    assert s.labels.dtype == np.int64


def test_guess_labels_path_requires_images_token(tmp_path):
    assert guess_idx_labels_path(str(tmp_path / "mystery.bin")) is None


def test_load_idx_bad_magic(tmp_path):
    p = tmp_path / "bad-images-idx3-ubyte"
    p.write_bytes(struct.pack(">IIII", 0x9999, 1, 2, 2) + bytes(4))
    with pytest.raises(DataError, match="magic"):
        load_idx(str(p), str(p))


def test_load_idx_truncated(tmp_path):
    img = tmp_path / "t-images-idx3-ubyte"
    img.write_bytes(struct.pack(">IIII", 0x803, 10, 5, 5) + bytes(30))
    lab = tmp_path / "t-labels-idx1-ubyte"
    lab.write_bytes(struct.pack(">II", 0x801, 10) + bytes(10))
    with pytest.raises(DataError, match="expected"):
        load_idx(str(img), str(lab))


def test_load_idx_count_mismatch(tmp_path):
    img = tmp_path / "t-images-idx3-ubyte"
    img.write_bytes(struct.pack(">IIII", 0x803, 2, 2, 2) + bytes(8))
    lab = tmp_path / "t-labels-idx1-ubyte"
    lab.write_bytes(struct.pack(">II", 0x801, 3) + bytes(3))
    with pytest.raises(DataError, match="images but"):
        load_idx(str(img), str(lab))


def test_load_idx_label_out_of_range(tmp_path):
    img = tmp_path / "t-images-idx3-ubyte"
    img.write_bytes(struct.pack(">IIII", 0x803, 2, 2, 2) + bytes(8))
    lab = tmp_path / "t-labels-idx1-ubyte"
    lab.write_bytes(struct.pack(">II", 0x801, 2) + bytes([1, 10]))
    with pytest.raises(DataError, match="outside"):
        load_idx(str(img), str(lab), classes=10)


def test_missing_file_is_data_error():
    with pytest.raises(DataError, match="not found"):
        load_idx("/nonexistent/x-images-idx3-ubyte", "/nonexistent/y")


def test_load_cifar_binary(tmp_path):
    r = np.random.default_rng(1)
    rec = np.zeros((7, CIFAR_RECORD), dtype=np.uint8)
    rec[:, 0] = r.integers(0, 10, 7)
    rec[:, 1:] = r.integers(0, 256, (7, 3072))
    p = tmp_path / "batch.bin"
    p.write_bytes(rec.tobytes())
    s = load_cifar_binary([str(p)])
    assert s.images.shape == (7, 3, 32, 32)
    np.testing.assert_array_equal(s.labels, rec[:, 0])
    # two files concatenate in argument order
    s2 = load_cifar_binary([str(p), str(p)])
    assert len(s2) == 14
    np.testing.assert_array_equal(s2.images[:7], s.images)


def write_split(tmp_path, layout: str):
    """(fmt, images paths, labels paths) of a split of random pixels and
    labels: 300 28x28 images in one IDX pair ("idx") or two ("idx2"), or 200
    CIFAR records in one file ("cifar") or two ("cifar2")."""
    r = np.random.default_rng(3)
    files = 2 if layout.endswith("2") else 1
    if layout.startswith("idx"):
        n, h = 300 // files, 28
        images, labels = [], []
        for i in range(files):
            images.append(tmp_path / f"s{i}-images-idx3-ubyte")
            labels.append(tmp_path / f"s{i}-labels-idx1-ubyte")
            images[i].write_bytes(struct.pack(">IIII", 0x803, n, h, h)
                                  + r.integers(0, 256, n * h * h, dtype=np.uint8).tobytes())
            labels[i].write_bytes(struct.pack(">II", 0x801, n)
                                  + r.integers(0, 10, n, dtype=np.uint8).tobytes())
        return "idx", [str(p) for p in images], [str(p) for p in labels]
    rec = r.integers(0, 256, (200, CIFAR_RECORD), dtype=np.uint8)
    rec[:, 0] %= 10
    paths = [tmp_path / f"part{i}.bin" for i in range(files)]
    for path, part in zip(paths, np.split(rec, files)):
        path.write_bytes(part.tobytes())
    return "cifar", [str(p) for p in paths], []


@pytest.mark.parametrize("layout", ["idx", "idx2", "cifar", "cifar2"])
def test_a_batch_of_split_bytes_converts_to_the_bytes_of_the_float_set(tmp_path, layout):
    # a run converts each batch it gathers; the float sets convert the whole
    # split first: both give the same bytes
    fmt, images, labels = write_split(tmp_path, layout)
    pixels, y = load_split(fmt, images, labels, 10)
    if fmt == "idx":
        sets = [load_idx(*pair) for pair in zip(images, labels)]
        s = ImageSet(np.concatenate([p.images for p in sets]),
                     np.concatenate([p.labels for p in sets]))
    else:
        s = load_cifar_binary(images)
    assert pixels.dtype == np.uint8 and pixels.shape == s.images.shape
    assert y.dtype == np.int64 and y.tobytes() == s.labels.tobytes()
    assert _unit_floats(pixels).tobytes() == s.images.tobytes()
    idx = np.random.default_rng(4).permutation(len(y))[:37]
    assert _unit_floats(pixels[idx]).tobytes() == _unit_floats(pixels)[idx].tobytes()


@pytest.mark.parametrize("layout", ["idx", "idx2", "cifar", "cifar2"])
def test_loading_a_split_holds_its_file_bytes_once(tmp_path, layout):
    # each file is read straight into the split's one uint8 array: no float
    # copy (4x the files), and no per-file buffers beside it, so the load
    # peaks near the files' size however many there are
    fmt, images, labels = write_split(tmp_path, layout)
    size = sum(os.path.getsize(p) for p in images + labels)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        pixels, _ = load_split(fmt, images, labels, 10, digests={})
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert pixels.dtype == np.uint8
    assert peak < 1.5 * size


def test_a_split_names_the_sha256_of_each_file_it_read(tmp_path):
    fmt, images, labels = write_split(tmp_path, "idx2")
    digests = {}
    load_split(fmt, images, labels, 10, digests)
    assert digests == {p: dstforge.data.sha256_file(p) for p in images + labels}


def test_load_cifar_rejects_ragged_file(tmp_path):
    p = tmp_path / "bad.bin"
    p.write_bytes(bytes(CIFAR_RECORD + 1))
    with pytest.raises(DataError, match="records"):
        load_cifar_binary([str(p)])


def test_idx_set_save_load_round_trip(tmp_path):
    imgs = toy_images()
    s = ImageSet(images=imgs, labels=np.arange(6, dtype=np.int64) % 3, name="toy")
    p = tmp_path / "toy.bin"
    save_image_set(s, p)
    assert p.read_bytes()[:4] == struct.pack(">I", 0x803)  # one channel: IDX
    back = load_image_set(p)
    np.testing.assert_array_equal(back.labels, s.labels)
    # uint8 quantization: within half a level
    assert np.abs(back.images - imgs).max() <= 0.5 / 255 + 1e-6


def test_cifar_set_save_load_round_trip(tmp_path):
    imgs = np.random.default_rng(2).random((4, 3, 32, 32)).astype(np.float32)
    s = ImageSet(images=imgs, labels=np.array([0, 1, 2, 3], dtype=np.int64), name="toy")
    p = tmp_path / "toy.bin"
    save_image_set(s, p)
    assert p.stat().st_size == 4 * CIFAR_RECORD  # 3x32x32: CIFAR records
    back = load_image_set(p)
    assert np.abs(back.images - imgs).max() <= 0.5 / 255 + 1e-6


def test_save_quantization_is_idempotent(tmp_path):
    """Saving a loaded set reproduces the file byte for byte."""
    imgs = toy_images(seed=3)
    s = ImageSet(images=imgs, labels=np.zeros(6, dtype=np.int64), name="toy")
    p1 = tmp_path / "a.bin"
    p2 = tmp_path / "b.bin"
    save_image_set(s, p1)
    save_image_set(load_image_set(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("fmt, c", [("idx", 1), ("cifar", 3)])
def test_save_and_load_keep_the_bytes_of_the_plain_formulas(tmp_path, fmt, c):
    # the layout follows the channel count: `fmt` names the one `c` selects
    # pixels past both ends, on exact half levels and in between
    r = np.random.default_rng(4)
    imgs = (r.random((5, c, 32, 32)) * 1.4 - 0.2).astype(np.float32)
    imgs[:, :, 0, :8] = (np.arange(8) + 0.5) / 255
    before = imgs.copy()
    p = tmp_path / "set.bin"
    save_image_set(ImageSet(images=imgs, labels=np.arange(5, dtype=np.int64)), p)
    assert imgs.tobytes() == before.tobytes()  # the caller's array is not touched
    q = np.rint(np.clip(imgs, 0.0, 1.0) * 255.0).astype(np.uint8)
    back = load_image_set(p)
    assert back.images.dtype == np.float32
    assert back.images.tobytes() == (q.astype(np.float32) / 255.0).tobytes()
    raw = p.read_bytes()
    if fmt == "cifar":
        assert raw == np.concatenate([np.arange(5, dtype=np.uint8)[:, None],
                                      q.reshape(5, -1)], axis=1).tobytes()
    else:
        assert raw[16 : 16 + q.size] == q.tobytes()


def test_save_layout_constraints(tmp_path):
    with pytest.raises(DataError, match="channel"):
        save_image_set(ImageSet(images=toy_images(c=3), labels=np.zeros(6, dtype=np.int64)),
                       tmp_path / "x.bin")
    with pytest.raises(DataError, match="3x32x32"):
        save_image_set(ImageSet(images=toy_images(c=3, h=16, w=16),
                                labels=np.zeros(6, dtype=np.int64)), tmp_path / "x.bin")
    assert not (tmp_path / "x.bin").exists()


def test_load_image_set_reads_a_raw_idx_images_file(idx_dir):
    """An IDX images block that ends the file takes the labels file beside it,
    named with "labels" for "images"."""
    images = f"{idx_dir}/t10k-images-idx3-ubyte"
    raw, pair = load_image_set(images), load_idx(images, f"{idx_dir}/t10k-labels-idx1-ubyte")
    assert raw.images.tobytes() == pair.images.tobytes()
    assert raw.labels.tobytes() == pair.labels.tobytes()
    assert raw.name == pair.name == "t10k-images-idx3-ubyte"


@pytest.mark.parametrize("layout", ["raw-idx", "idx-set", "cifar"])
def test_load_image_set_opens_each_file_once(idx_dir, tmp_path, monkeypatch, layout):
    """The layout is sniffed from the one read of the file that is parsed."""
    if layout == "raw-idx":
        path = f"{idx_dir}/t10k-images-idx3-ubyte"
        files = [path, f"{idx_dir}/t10k-labels-idx1-ubyte"]
    else:
        c, h = (1, 5) if layout == "idx-set" else (3, 32)
        path = str(tmp_path / "set.bin")
        save_image_set(ImageSet(images=toy_images(c=c, h=h, w=h),
                                labels=np.arange(6, dtype=np.int64)), path)
        files = [path]
    opened = []

    def counting_open(file, *args, **kwargs):
        opened.append(str(file))
        return open(file, *args, **kwargs)

    monkeypatch.setattr(dstforge.data, "open", counting_open, raising=False)
    s = load_image_set(path)
    assert sorted(opened) == sorted(files)
    assert len(s) == (len(load_idx(*files)) if layout == "raw-idx" else 6)


def test_load_image_set_sniffs_garbage(tmp_path):
    p = tmp_path / "junk.bin"
    p.write_bytes(b"\x01\x02\x03")
    with pytest.raises(DataError, match="neither"):
        load_image_set(p)


def test_corrupted_filename_round_trip():
    name = corrupted_set_filename("t10k", "gaussian_noise", 3)
    assert name == "t10k-gaussian_noise-s3.bin"
    assert parse_corrupted_set_filename(name) == ("t10k", "gaussian_noise", 3)
    assert parse_corrupted_set_filename("/a/b/t10k-motion_blur-s5.bin") == (
        "t10k", "motion_blur", 5)
    stem, kind, sev = parse_corrupted_set_filename("plain.bin")
    assert (stem, kind, sev) == ("plain", "plain", 0)


def test_corrupted_filename_round_trip_with_dotted_base(tmp_path):
    # a dataset file such as `test.bin` or `cifar.test.bin` names its sets
    # with the dot kept; every (kind, severity) must still parse apart
    s = ImageSet(images=toy_images(n=2), labels=np.zeros(2, dtype=np.int64))
    kinds = [f"kind_{i}" for i in range(10)]
    sets = {(kind, sev): s for kind in kinds for sev in range(1, 6)}
    for base in ("test.bin", "cifar.test"):
        paths = write_corrupted_sets(sets, tmp_path / base, base)
        parsed = [parse_corrupted_set_filename(p) for p in paths]
        assert {(kind, sev) for _, kind, sev in parsed} == set(sets)
        assert {b for b, _, _ in parsed} == {base}


def test_write_corrupted_sets(tmp_path):
    imgs = toy_images(n=3)
    s = ImageSet(images=imgs, labels=np.zeros(3, dtype=np.int64), name="toy")
    sets = {("contrast", 1): s, ("contrast", 2): s}
    paths = write_corrupted_sets(sets, tmp_path / "out", "toy")
    assert sorted(p.rsplit("/", 1)[1] for p in paths) == [
        "toy-contrast-s1.bin", "toy-contrast-s2.bin"]
    for p in paths:
        assert len(load_image_set(p)) == 3
