"""Study orchestration: dataset discovery, config generation, run reuse,
and the scores of a whole study against direct metric calls."""

import json
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import fail_atomic_writes, make_blob_set, write_idx_pair

import dstforge.study
import dstforge.train
from dstforge.checkpoint import load_checkpoint
from dstforge.config import ConfigError, parse_config
from dstforge.corruption import KINDS, SEVERITIES
from dstforge.data import corrupted_set_filename, load_idx
from dstforge.metrics import accuracy, robustness_accuracy
from dstforge.spectral import ra_curve
from dstforge.study import (
    DEFAULT_METHODS,
    StudyError,
    StudyMethod,
    ensure_run,
    find_idx_dataset,
    run_study,
    study_config_text,
)
from dstforge.train import run_train


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


@pytest.fixture(scope="module")
def idx28_dir(tmp_path_factory) -> str:
    """A small 1x28x28 blob task: the input the study's MLP takes."""
    d = str(tmp_path_factory.mktemp("blobs28"))
    write_idx_pair(d, "train", *make_blob_set(200, seed=1, side=28))
    write_idx_pair(d, "t10k", *make_blob_set(40, seed=2, side=28))
    return d


def test_study_config_text_parses(idx28_dir, tmp_path):
    data = find_idx_dataset(idx28_dir)
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


def test_ensure_run_reuses_finished_run(idx28_dir, tmp_path, monkeypatch):
    """A final.ckpt that carries the cell's run digest is the finished run:
    it is reused as it is, config.ini or not."""
    data = find_idx_dataset(idx28_dir)
    m = StudyMethod("dense", "dense")
    run_dir = tmp_path / "dense-seed1"
    run_train(parse_config(study_config_text(m, 1, 1, data, str(run_dir))))
    planted = run_dir.joinpath("final.ckpt").read_bytes()

    def no_rework(*args, **kwargs):
        raise AssertionError("a finished run trained again")

    monkeypatch.setattr(dstforge.study, "run_train", no_rework)
    cfg, ckpt = ensure_run(m, 1, 1, data, str(tmp_path))
    assert ckpt == str(run_dir / "final.ckpt")
    assert Path(ckpt).read_bytes() == planted
    assert cfg.seed == 1


def test_a_run_that_dies_before_its_cost_report_is_trained_again(idx28_dir, tmp_path,
                                                                  monkeypatch):
    """final.ckpt is written last, so a run that dies before it leaves none,
    and ensure_run trains the cell again instead of reusing a run that has
    no cost.json."""
    data = find_idx_dataset(idx28_dir)
    m = StudyMethod("dense", "dense")
    run_dir = tmp_path / "dense-seed1"

    def no_cost(*args, **kwargs):
        raise RuntimeError("cost report failed")

    monkeypatch.setattr(dstforge.train, "cost_report", no_cost)
    with pytest.raises(RuntimeError, match="cost report failed"):
        ensure_run(m, 1, 1, data, str(tmp_path))
    assert not run_dir.joinpath("final.ckpt").exists()
    monkeypatch.undo()

    trained = []

    def counted_run_train(cfg):
        trained.append(cfg)
        return run_train(cfg)

    monkeypatch.setattr(dstforge.study, "run_train", counted_run_train)
    ensure_run(m, 1, 1, data, str(tmp_path))
    assert len(trained) == 1
    assert run_dir.joinpath("cost.json").exists() and run_dir.joinpath("final.ckpt").exists()


def test_ensure_run_refuses_a_final_ckpt_of_other_data_or_unreadable(idx28_dir, tmp_path):
    other = tmp_path / "other"
    other.mkdir()
    write_idx_pair(str(other), "train", *make_blob_set(200, seed=5, side=28))
    write_idx_pair(str(other), "t10k", *make_blob_set(40, seed=2, side=28))
    m = StudyMethod("dense", "dense")
    root = tmp_path / "study"
    run_dir = root / "dense-seed1"
    run_train(parse_config(study_config_text(m, 1, 1, find_idx_dataset(str(other)), str(run_dir))))
    data = find_idx_dataset(idx28_dir)
    with pytest.raises(StudyError, match=re.escape(f"{run_dir} holds a run of another")):
        ensure_run(m, 1, 1, data, str(root))

    ckpt = run_dir / "final.ckpt"
    written = bytearray(ckpt.read_bytes())
    written[4:6] = struct.pack("<H", 1)  # the version before the run digest
    ckpt.write_bytes(bytes(written))
    with pytest.raises(StudyError, match="version 1") as e:
        ensure_run(m, 1, 1, data, str(root))
    assert str(run_dir) in str(e.value)


def test_ensure_run_rejects_mismatched_config(idx28_dir, tmp_path):
    data = find_idx_dataset(str(idx28_dir))
    m = StudyMethod("dense", "dense")
    run_dir = tmp_path / "dense-seed1"
    run_dir.mkdir()
    run_dir.joinpath("config.ini").write_text(
        study_config_text(m, 1, 10, data, str(run_dir)))
    with pytest.raises(StudyError, match="different config"):
        ensure_run(m, 1, 20, data, str(tmp_path))


def test_failed_config_write_leaves_no_config(idx28_dir, tmp_path, monkeypatch):
    # a partial config.ini would make every later run_study refuse the
    # directory as holding a different config
    fail_atomic_writes(monkeypatch, "config.ini.tmp")
    data = find_idx_dataset(str(idx28_dir))
    with pytest.raises(OSError, match="No space left"):
        ensure_run(StudyMethod("dense", "dense"), 1, 1, data, str(tmp_path))
    run_dir = tmp_path / "dense-seed1"
    assert not run_dir.joinpath("config.ini").exists()
    assert not run_dir.joinpath("config.ini.tmp").exists()


def test_run_study_scores_match_direct_calls_and_rerun_is_cached(tmp_path, monkeypatch):
    # the study trains mlp:784-300-100-10, so it needs 1x28x28 images
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    write_idx_pair(str(data_dir), "train", *make_blob_set(300, seed=1, side=28))
    write_idx_pair(str(data_dir), "t10k", *make_blob_set(120, seed=2, side=28))
    data = find_idx_dataset(str(data_dir))
    root = str(tmp_path / "study")
    methods = (StudyMethod("dense", "dense"), StudyMethod("set_s50", "set", 0.5))
    radii = (2, 6)
    result = run_study(data, root, epochs=1, seeds=(1,), methods=methods, radii=radii,
                       corruption_seed=3)
    with open(os.path.join(root, "study.json"), "rb") as fh:
        written = fh.read()
    doc = json.loads(written)

    test = load_idx(data["test_images"], data["test_labels"])
    base = os.path.basename(data["test_images"])
    grid = {(kind, sev): os.path.join(root, "corrupted", corrupted_set_filename(base, kind, sev))
            for kind in KINDS for sev in SEVERITIES}
    for m in methods:
        model = load_checkpoint(result.checkpoints[(m.label, 1)]).build_model()
        assert doc["clean_accuracy"][f"{m.label}-seed1"] == accuracy(model, test)
        [report] = robustness_accuracy([model], grid)
        assert doc["mean_robustness_accuracy"][m.label] == report.mean
        for mode in ("low", "high"):
            [curve] = ra_curve([model], test, mode, radii)
            assert doc["ra_mean"][f"{m.label}-{mode}"] == [list(p) for p in curve.points]

    def no_rework(*args, **kwargs):
        raise AssertionError("a cached study trained or rendered again")

    monkeypatch.setattr(dstforge.study, "build_corrupted_set", no_rework)
    monkeypatch.setattr(dstforge.study, "run_train", no_rework)
    loads = []
    load = dstforge.study.load_checkpoint
    monkeypatch.setattr(dstforge.study, "load_checkpoint", lambda p: loads.append(p) or load(p))
    run_study(data, root, epochs=1, seeds=(1,), methods=methods, radii=radii,
              corruption_seed=3)
    with open(os.path.join(root, "study.json"), "rb") as fh:
        assert fh.read() == written
    # each finished run's final.ckpt is read once: its digest check builds the model
    assert sorted(loads) == sorted(result.checkpoints.values())


def test_corrupted_grid_from_another_seed_or_without_source_is_refused(idx28_dir, tmp_path):
    data = find_idx_dataset(idx28_dir)
    root = str(tmp_path / "study")
    kwargs = dict(epochs=1, seeds=(1,), methods=(StudyMethod("dense", "dense"),), radii=(2,))
    run_study(data, root, corruption_seed=0, **kwargs)
    source = Path(root, "corrupted", "source.json")
    pinned = json.loads(source.read_text())
    assert pinned["corruption_seed"] == 0
    run_study(data, root, corruption_seed=0, **kwargs)  # same sources: cached

    with pytest.raises(StudyError, match="corruption_seed': 7"):
        run_study(data, root, corruption_seed=7, **kwargs)
    assert json.loads(source.read_text()) == pinned

    source.unlink()
    with pytest.raises(StudyError, match="no source.json"):
        run_study(data, root, corruption_seed=0, **kwargs)


@pytest.mark.parametrize("empty", ["seeds", "methods"])
def test_an_empty_seed_or_method_tuple_is_refused_before_anything_is_written(
        idx28_dir, tmp_path, empty):
    root = tmp_path / "study"
    with pytest.raises(ValueError, match=f"{empty} is empty"):
        run_study(find_idx_dataset(idx28_dir), str(root), epochs=1, radii=(2,), **{empty: ()})
    assert not root.exists()


@pytest.mark.parametrize("seeds, corruption_seed", [((1, -2), 0), ((1,), -1)])
def test_a_negative_seed_is_refused_before_anything_is_written(
        idx28_dir, tmp_path, seeds, corruption_seed):
    root = tmp_path / "study"
    with pytest.raises(ValueError, match="seeds and corruption_seed must be >= 0"):
        run_study(find_idx_dataset(idx28_dir), str(root), epochs=1, seeds=seeds,
                  methods=DEFAULT_METHODS[:1], radii=(2,), corruption_seed=corruption_seed)
    assert not root.exists()


@pytest.mark.parametrize("radii", [(), (4, 2), (15,)])
def test_radii_the_test_images_cannot_take_are_refused_before_anything_is_written(
        idx28_dir, tmp_path, radii):
    # 28x28 test images: radii must rise strictly within [0, 14]
    root = tmp_path / "study"
    with pytest.raises(ValueError, match=r"within \[0, 14\] for 28x28 images"):
        run_study(find_idx_dataset(idx28_dir), str(root), epochs=1, seeds=(1,),
                  methods=DEFAULT_METHODS[:1], radii=radii)
    assert not root.exists()


def test_a_refused_config_writes_nothing_and_the_corrected_study_then_runs(idx28_dir, tmp_path):
    # a config.ini left by a refused call would make the corrected call
    # refuse its run directory as holding a different config
    data = find_idx_dataset(idx28_dir)
    root = tmp_path / "study"
    dense = StudyMethod("dense", "dense")
    with pytest.raises(ValueError, match="epochs must be >= 1"):
        run_study(data, str(root), epochs=0, seeds=(1,), methods=(dense,), radii=(2,))
    assert not root.exists()
    with pytest.raises(ConfigError, match="epochs"):
        ensure_run(dense, 1, 0, data, str(root))
    assert not root.exists()
    result = run_study(data, str(root), epochs=1, seeds=(1,), methods=(dense,), radii=(2,))
    assert os.path.exists(result.checkpoints[("dense", 1)])


@pytest.mark.parametrize("flag,value,shown", [
    ("--seeds", "", "''"), ("--seeds", "1,,2", "'1,,2'"), ("--seeds", "1,x", "'1,x'"),
    ("--epochs", "0", "got 0"), ("--seeds", "1,-1", "'1,-1'"),
], ids=["", "1,,2", "1,x", "epochs-0", "1,-1"])
def test_the_study_script_refuses_bad_seeds_in_one_line(idx28_dir, tmp_path, flag, value, shown):
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_robustness_study.py"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    r = subprocess.run([sys.executable, str(script), flag, value, "--data", idx28_dir,
                        "--out", str(tmp_path / "study")],
                       capture_output=True, text=True, env=env, timeout=120)
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.count("\n") == 1 and r.stderr.startswith(flag) and shown in r.stderr
    assert not (tmp_path / "study").exists()
