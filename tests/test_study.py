"""Study orchestration: dataset discovery, config generation, run reuse,
and the scores of a whole study against direct metric calls."""

import json
import os
import re
import shutil
import struct
from pathlib import Path

import pytest

from conftest import fail_atomic_writes, make_blob_set, run_cli, write_idx_pair

import dstforge.study
import dstforge.train
from dstforge.checkpoint import load_checkpoint
from dstforge.config import ConfigError, RunConfig, parse_config
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
    monkeypatch.setattr(dstforge.study, "load_checkpoint",
                        lambda p, **kw: loads.append((p, kw)) or load(p, **kw))
    run_study(data, root, epochs=1, seeds=(1,), methods=methods, radii=radii,
              corruption_seed=3)
    with open(os.path.join(root, "study.json"), "rb") as fh:
        assert fh.read() == written
    # each finished run's final.ckpt is read once, for scoring: its digest
    # check builds the model
    assert sorted(p for p, _ in loads) == sorted(result.checkpoints.values())
    assert all(kw == {"momenta": False} for _, kw in loads)


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


@pytest.mark.parametrize("seeds, corruption_seed, error, refused", [
    ((1, -2), 0, ConfigError, r"\[train\] seed must be >= 0, got -2"),
    ((1,), -1, ValueError, "seed must be a non-negative int, got -1"),
], ids=["seeds0-0", "seeds1--1"])
def test_a_negative_seed_is_refused_before_anything_is_written(
        idx28_dir, tmp_path, seeds, corruption_seed, error, refused):
    # the parser refuses a cell's seed, CorruptionSpec the grid's
    root = tmp_path / "study"
    with pytest.raises(error, match=refused):
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
    with pytest.raises(ConfigError, match=r"\[train\] epochs must be >= 1, got 0"):
        run_study(data, str(root), epochs=0, seeds=(1,), methods=(dense,), radii=(2,))
    assert not root.exists()
    with pytest.raises(ConfigError, match="epochs"):
        ensure_run(dense, 1, 0, data, str(root))
    assert not root.exists()
    result = run_study(data, str(root), epochs=1, seeds=(1,), methods=(dense,), radii=(2,))
    assert os.path.exists(result.checkpoints[("dense", 1)])


def _tree(root) -> dict[str, bytes | None]:
    """Every path under `root` and the bytes of each file in it."""
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None
            for p in Path(root).rglob("*")}


@pytest.fixture
def no_work(monkeypatch):
    """Make any training or rendering of a grid cell fail the test."""

    def refused(*args, **kwargs):
        raise AssertionError("a study trained or rendered before it refused")

    monkeypatch.setattr(dstforge.study, "run_train", refused)
    monkeypatch.setattr(dstforge.study, "build_corrupted_set", refused)


@pytest.fixture(scope="module")
def dense_study(idx28_dir, tmp_path_factory) -> str:
    """A finished 1-epoch study of the dense label alone, seed 1, its grid
    pinned at corruption_seed 0."""
    root = str(tmp_path_factory.mktemp("dense-study") / "study")
    run_study(find_idx_dataset(idx28_dir), root, epochs=1, seeds=(1,),
              methods=(StudyMethod("dense", "dense"),), radii=(2,), corruption_seed=0)
    return root


DENSE, SET_S50 = StudyMethod("dense", "dense"), StudyMethod("set_s50", "set", 0.5)


def test_a_label_the_parser_refuses_is_refused_before_the_first_cell_trains(
        idx28_dir, tmp_path, no_work):
    root = tmp_path / "study"
    with pytest.raises(ConfigError, match=r"\[dst\] sparsity must be in \(0, 1\) for set, got 1.5"):
        run_study(find_idx_dataset(idx28_dir), str(root), epochs=1, seeds=(1,),
                  methods=(DENSE, StudyMethod("set_s150", "set", 1.5)), radii=(2,))
    assert not root.exists()


def test_a_stale_final_ckpt_in_a_later_cell_is_refused_before_the_first_cell_trains(
        idx28_dir, dense_study, tmp_path, no_work):
    root = tmp_path / "study"
    stale = root / "set_s50-seed1"
    stale.mkdir(parents=True)
    shutil.copy(Path(dense_study, "dense-seed1", "final.ckpt"), stale / "final.ckpt")
    before = _tree(root)
    with pytest.raises(StudyError, match=re.escape(f"{stale} holds a run of another")):
        run_study(find_idx_dataset(idx28_dir), str(root), epochs=1, seeds=(1,),
                  methods=(DENSE, SET_S50), radii=(2,))
    assert _tree(root) == before


def test_a_grid_of_another_corruption_seed_is_refused_before_an_untrained_label_trains(
        idx28_dir, dense_study, tmp_path, no_work):
    root = tmp_path / "study"
    shutil.copytree(dense_study, root)
    before = _tree(root)
    with pytest.raises(StudyError, match="corruption_seed': 7"):
        run_study(find_idx_dataset(idx28_dir), str(root), epochs=1, seeds=(1,),
                  methods=(DENSE, SET_S50), radii=(2,), corruption_seed=7)
    assert _tree(root) == before


def test_two_configs_in_one_run_directory_are_refused_before_anything_is_written(
        idx28_dir, tmp_path, no_work):
    root = tmp_path / "study"
    with pytest.raises(ValueError, match="label 'dense' names .*'dense'.* and .*method='set'"):
        run_study(find_idx_dataset(idx28_dir), str(root), epochs=1, seeds=(1,),
                  methods=(DENSE, StudyMethod("dense", "set", 0.5)), radii=(2,))
    assert not root.exists()


def test_a_label_named_twice_with_one_config_is_one_cell(idx28_dir, dense_study, tmp_path,
                                                         monkeypatch):
    root = tmp_path / "study"
    shutil.copytree(dense_study, root)
    loads = []
    load = dstforge.study.load_checkpoint
    monkeypatch.setattr(dstforge.study, "load_checkpoint",
                        lambda p, **kw: loads.append((p, kw)) or load(p, **kw))
    result = run_study(find_idx_dataset(idx28_dir), str(root), epochs=1, seeds=(1,),
                       methods=(DENSE, DENSE), radii=(2,), corruption_seed=0)
    assert loads == [(str(root / "dense-seed1" / "final.ckpt"), {"momenta": False})]
    assert list(result.checkpoints) == [("dense", 1)]


def test_a_cached_study_hashes_each_data_file_once(idx28_dir, tmp_path, monkeypatch):
    # every cell's run digest and the grid's source.json take the SHA-256 of
    # the same files; a 2 x 2 study once hashed the training images 4 times
    # and the test images 5 times
    data = find_idx_dataset(idx28_dir)
    root = str(tmp_path / "study")
    study = dict(epochs=1, seeds=(1, 2), methods=(DENSE, SET_S50), radii=(2,))
    result = run_study(data, root, **study)
    hashed, digests = [], []
    for module in (dstforge.config, dstforge.study):
        monkeypatch.setattr(module, "sha256_file",
                            lambda p, real=module.sha256_file: hashed.append(p) or real(p))
    digest = RunConfig.digest
    monkeypatch.setattr(RunConfig, "digest", lambda cfg, *args, **kwargs: digests.append(
        (cfg, digest(cfg, *args, **kwargs))) or digests[-1][1])
    run_study(data, root, **study)
    assert sorted(hashed) == sorted(data.values())
    monkeypatch.undo()
    assert len(digests) == len(result.checkpoints) == 4
    for cfg, got in digests:
        assert got == cfg.digest()


@pytest.mark.parametrize("flag,value,shown", [
    ("--seeds", "", "--seeds must be comma-separated integers, got ''"),
    ("--seeds", "1,,2", "--seeds must be comma-separated integers, got '1,,2'"),
    ("--seeds", "1,x", "--seeds must be comma-separated integers, got '1,x'"),
    ("--seeds", "1,-1", "[train] seed must be >= 0, got -1"),
    ("--epochs", "0", "[train] epochs must be >= 1, got 0"),
], ids=["", "1,,2", "1,x", "1,-1", "epochs-0"])
def test_the_study_script_refuses_bad_seeds_in_one_line(idx28_dir, tmp_path, capsys,
                                                        flag, value, shown):
    # `dstforge study` took the study script's place, flags and messages
    out = tmp_path / "study"
    code, stdout, err = run_cli(capsys, "study", flag, value, "--data", idx28_dir,
                                "--out", str(out))
    assert (code, stdout, err) == (2, "", f"config error: {shown}\n")
    assert not out.exists()


def test_study_without_a_dataset_exits_3(tmp_path, capsys):
    out = tmp_path / "study"
    code, stdout, err = run_cli(capsys, "study", "--data", str(tmp_path / "none"),
                                "--out", str(out))
    assert (code, stdout) == (3, "")
    assert err == "data error: no IDX dataset found; run scripts/fetch_data.py first\n"
    assert not out.exists()


def test_study_with_a_stale_run_directory_exits_3(idx28_dir, tmp_path, capsys):
    out = tmp_path / "study"
    stale = out / "dense-seed1"
    stale.mkdir(parents=True)
    stale.joinpath("config.ini").write_text("[train]\n")
    code, stdout, err = run_cli(capsys, "study", "--data", idx28_dir, "--out", str(out),
                                "--epochs", "1", "--seeds", "1")
    assert (code, stdout) == (3, "")
    assert err == f"data error: {stale} holds results for a different config; remove it to rerun\n"
    assert _tree(out) == {"dense-seed1": None, "dense-seed1/config.ini": b"[train]\n"}


def test_study_trains_scores_and_summarizes_the_default_stable(idx28_dir, tmp_path, capsys):
    out = tmp_path / "study"
    code, stdout, err = run_cli(capsys, "study", "--data", idx28_dir, "--out", str(out),
                                "--epochs", "1", "--seeds", "1")
    assert (code, err) == (0, "")
    lines = stdout.splitlines()
    labels = [m.label for m in DEFAULT_METHODS]
    assert lines[:4] == [f"training {label} seed 1" for label in labels]
    assert lines[4:14] == [f"corruption {kind}" for kind in KINDS]
    assert lines[14:16] == ["attenuation low r=2,4,6,8,10", "attenuation high r=2,4,6,8,10"]
    doc = json.loads(out.joinpath("study.json").read_text())
    assert lines[16:] == [
        *(f"{label:<10} mean robustness accuracy {doc['mean_robustness_accuracy'][label]:.4f}"
          for label in labels),
        f"details: {out}/study.json"]
