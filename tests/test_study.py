"""Study orchestration: dataset discovery, config generation, run reuse."""

import os
from pathlib import Path

import pytest

import dstforge.data
from dstforge.config import parse_config
from dstforge.study import (
    DEFAULT_METHODS,
    StudyError,
    StudyMethod,
    ensure_run,
    find_idx_dataset,
    study_config_text,
)


def test_find_idx_dataset_missing(tmp_path):
    assert find_idx_dataset(str(tmp_path)) is None
    assert find_idx_dataset(str(tmp_path / "nowhere")) is None


def test_find_idx_dataset_at_root(idx_dir):
    data = find_idx_dataset(str(idx_dir))
    assert data is not None
    assert sorted(data) == ["test_images", "test_labels", "train_images", "train_labels"]
    assert data["train_images"] == os.path.join(str(idx_dir), "train-images-idx3-ubyte")


def test_find_idx_dataset_scans_subdirectories(idx_dir, tmp_path):
    src = Path(idx_dir)
    sub = tmp_path / "fashion-mnist"
    sub.mkdir()
    for name in ("train-images-idx3-ubyte", "train-labels-idx1-ubyte",
                 "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"):
        sub.joinpath(name).write_bytes(src.joinpath(name).read_bytes())
    data = find_idx_dataset(str(tmp_path))
    assert data is not None
    assert data["test_labels"] == str(sub / "t10k-labels-idx1-ubyte")


def test_default_method_stable():
    labels = [m.label for m in DEFAULT_METHODS]
    assert labels == ["dense", "set_s50", "set_s95", "rigl_s50"]
    assert DEFAULT_METHODS[2].sparsity == 0.95


def test_study_config_text_parses(idx_dir, tmp_path):
    data = find_idx_dataset(str(idx_dir))
    text = study_config_text(StudyMethod("set_s50", "set", 0.5), seed=2,
                             epochs=20, data=data, out_dir=str(tmp_path / "o"))
    cfg = parse_config(text)
    assert cfg.seed == 2
    assert cfg.epochs == 20
    assert cfg.dst.method == "set"
    assert cfg.dst.sparsity == 0.5
    dense = parse_config(study_config_text(StudyMethod("dense", "dense"), seed=1,
                                           epochs=20, data=data,
                                           out_dir=str(tmp_path / "d")))
    assert dense.dst.method == "dense"


def test_ensure_run_reuses_finished_run(idx_dir, tmp_path):
    data = find_idx_dataset(str(idx_dir))
    m = StudyMethod("dense", "dense")
    run_dir = tmp_path / "dense-seed1"
    run_dir.mkdir()
    text = study_config_text(m, 1, 20, data, str(run_dir))
    run_dir.joinpath("config.ini").write_text(text)
    run_dir.joinpath("final.ckpt").write_bytes(b"sentinel")
    cfg, ckpt = ensure_run(m, 1, 20, data, str(tmp_path))
    assert ckpt == str(run_dir / "final.ckpt")
    with open(ckpt, "rb") as fh:
        assert fh.read() == b"sentinel"
    assert cfg.seed == 1


def test_ensure_run_rejects_mismatched_config(idx_dir, tmp_path):
    data = find_idx_dataset(str(idx_dir))
    m = StudyMethod("dense", "dense")
    run_dir = tmp_path / "dense-seed1"
    run_dir.mkdir()
    run_dir.joinpath("config.ini").write_text(
        study_config_text(m, 1, 10, data, str(run_dir)))
    with pytest.raises(StudyError, match="different config"):
        ensure_run(m, 1, 20, data, str(tmp_path))


def test_failed_config_write_leaves_no_config(idx_dir, tmp_path, monkeypatch):
    # a partial config.ini would make every later run_study refuse the
    # directory as holding a different config
    class DiskFull:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[: len(text) // 2])
            raise OSError(28, "No space left on device")

    def failing_open(path, mode="r"):
        fh = open(path, mode)
        return DiskFull(fh) if path.endswith("config.ini.tmp") else fh

    monkeypatch.setattr(dstforge.data, "open", failing_open, raising=False)
    data = find_idx_dataset(str(idx_dir))
    with pytest.raises(OSError, match="No space left"):
        ensure_run(StudyMethod("dense", "dense"), 1, 1, data, str(tmp_path))
    run_dir = tmp_path / "dense-seed1"
    assert not run_dir.joinpath("config.ini").exists()
    assert not run_dir.joinpath("config.ini.tmp").exists()
