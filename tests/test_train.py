"""Trainer behavior: artifacts, determinism, resume, divergence, evaluation."""

import ctypes
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from conftest import color_blobs, make_blob_set, toy_config, write_cifar, write_idx_pair

import dstforge.data
import dstforge.train
from dstforge.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from dstforge.config import ConfigError, parse_config
from dstforge.corruption import CorruptionSpec, corrupt_images
from dstforge.data import ImageSet, _unit_floats, load_idx, save_image_set
from dstforge.metrics import accuracy
from dstforge.optim import sgd_momentum_step
from dstforge.schedulers import BudgetTrajectory, DstConfig
from dstforge.sparsity import DENSE
from dstforge.spectral import RACurve
from dstforge.tensor import backward, softmax_cross_entropy
from dstforge.train import (
    load_model_from_checkpoint,
    load_train_test,
    run_eval,
    run_train,
)


def read_metrics(out_dir):
    with open(os.path.join(out_dir, "metrics.jsonl")) as fh:
        return [json.loads(line) for line in fh]


def test_failed_checkpoint_write_leaves_no_final_ckpt(idx_dir, tmp_path, monkeypatch):
    # a write that dies partway must not leave a truncated final.ckpt behind:
    # study.ensure_run takes its presence for a finished run
    class DiskFullAfterFirstWrite:
        def __init__(self, fh):
            self.fh, self.writes = fh, 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, b):
            self.writes += 1
            if self.writes > 1:
                raise OSError(28, "No space left on device")
            return self.fh.write(b)

    def failing_open(path, mode="r"):
        fh = open(path, mode)
        return DiskFullAfterFirstWrite(fh) if path.endswith("final.ckpt.tmp") else fh

    monkeypatch.setattr(dstforge.data, "open", failing_open, raising=False)
    cfg = parse_config(toy_config(idx_dir, str(tmp_path / "run"), epochs=1))
    with pytest.raises(OSError, match="No space left"):
        run_train(cfg)
    assert not os.path.exists(os.path.join(cfg.out_dir, "final.ckpt"))
    assert not os.path.exists(os.path.join(cfg.out_dir, "final.ckpt.tmp"))


def test_run_artifacts_exist(set_run):
    cfg, ckpt = set_run
    assert ckpt == os.path.join(cfg.out_dir, "final.ckpt")
    for name in ("final.ckpt", "metrics.jsonl", "trajectory.csv", "cost.json"):
        assert os.path.exists(os.path.join(cfg.out_dir, name)), name


def test_metrics_one_line_per_epoch(set_run):
    cfg, _ = set_run
    records = read_metrics(cfg.out_dir)
    assert [r["epoch"] for r in records] == list(range(cfg.epochs))
    for r in records:
        assert set(r) == {"epoch", "train_loss", "test_acc", "density"}
        assert np.isfinite(r["train_loss"])
        assert r["density"] == pytest.approx(0.5, abs=0.01)


def test_training_learns_the_blob_task(set_run):
    cfg, _ = set_run
    final = read_metrics(cfg.out_dir)[-1]
    assert final["test_acc"] is not None
    assert final["test_acc"] >= 0.5  # chance is 0.1


def test_trajectory_csv_records_updates(set_run):
    cfg, _ = set_run
    with open(os.path.join(cfg.out_dir, "trajectory.csv")) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "step,density"
    steps = [int(l.split(",")[0]) for l in lines[1:]]
    # delta_t 15, total 60, last update at 45 (step 60 is past stop)
    assert steps == [0, 15, 30, 45]


def test_cost_report_probe_accounting(set_run, idx_dir, tmp_path):
    cfg, _ = set_run
    with open(os.path.join(cfg.out_dir, "cost.json")) as fh:
        cost = json.load(fh)
    assert cost["method"] == "set"
    assert cost["probe_events"] == 0  # random regrowth needs no dense probes
    out = str(tmp_path / "rigl")
    rcfg = parse_config(toy_config(idx_dir, out, method="rigl", sparsity=0.5, epochs=1))
    run_train(rcfg)
    with open(os.path.join(out, "cost.json")) as fh:
        rcost = json.load(fh)
    assert rcost["probe_events"] == len(rcost["trajectory"]) - 1 > 0
    assert rcost["training_flops"] > 0


def test_dense_run_trajectory(dense_run):
    cfg, ckpt = dense_run
    with open(os.path.join(cfg.out_dir, "trajectory.csv")) as fh:
        lines = fh.read().splitlines()
    assert lines[1:] == ["0,1.0"]
    ck = load_checkpoint(ckpt)
    assert ck.mask().names() == ()
    assert ck.mask().global_density() == 1.0


def test_dense_run_draws_nothing_from_the_topology_stream(idx_dir, tmp_path):
    # the empty topology is built like every other one, from the topology
    # stream, but takes nothing from it: the checkpoint stores the stream
    # exactly as seeded
    cfg = parse_config(toy_config(idx_dir, str(tmp_path / "d"), epochs=1))
    ck = load_checkpoint(run_train(cfg))
    seeded = np.random.default_rng((cfg.seed, dstforge.train._TOPOLOGY_STREAM))
    assert ck.rng_state == seeded.bit_generator.state


def test_same_seed_reproduces_checkpoint_bytes(idx_dir, tmp_path):
    cfg_a = parse_config(toy_config(idx_dir, str(tmp_path / "a"), method="set",
                                    sparsity=0.5, epochs=1))
    cfg_b = parse_config(toy_config(idx_dir, str(tmp_path / "b"), method="set",
                                    sparsity=0.5, epochs=1))
    pa, pb = run_train(cfg_a), run_train(cfg_b)
    with open(pa, "rb") as fa, open(pb, "rb") as fb:
        assert fa.read() == fb.read()


def test_different_seed_changes_weights(idx_dir, tmp_path):
    cfg_a = parse_config(toy_config(idx_dir, str(tmp_path / "a"), epochs=1, seed=1))
    cfg_b = parse_config(toy_config(idx_dir, str(tmp_path / "b"), epochs=1, seed=2))
    ma, _ = load_model_from_checkpoint(run_train(cfg_a))
    mb, _ = load_model_from_checkpoint(run_train(cfg_b))
    assert not np.array_equal(ma.layers[0].weight.data, mb.layers[0].weight.data)


@pytest.mark.parametrize("method, stop", [
    ("set", 37),  # mid-epoch, off the update grid
    ("rigl", 30),  # at an event (delta_t 15): it reads the step's gradient
    ("mest_r", 30),
])
def test_resume_is_bitwise_identical(idx_dir, tmp_path, method, stop):
    """Stop, resume, and compare every artifact byte for byte. Stopping at an
    event of a gradient-reading method pins that no event reads a gradient a
    resume could lose."""
    text_full = toy_config(idx_dir, str(tmp_path / "full"), method=method,
                           sparsity=0.5, epochs=2)
    text_split = toy_config(idx_dir, str(tmp_path / "split"), method=method,
                            sparsity=0.5, epochs=2)
    run_train(parse_config(text_full))
    cfg_split = parse_config(text_split)
    mid = run_train(cfg_split, stop_after_step=stop)
    assert mid.endswith(f"step{stop:08d}.ckpt")
    run_train(cfg_split, resume_path=mid)
    for name in ("final.ckpt", "metrics.jsonl", "trajectory.csv", "cost.json"):
        with open(os.path.join(tmp_path, "full", name), "rb") as fa, \
             open(os.path.join(tmp_path, "split", name), "rb") as fb:
            assert fa.read() == fb.read(), name


def test_resume_from_earlier_checkpoint_rewrites_later_epochs(idx_dir, tmp_path):
    """Resuming a finished run from its step-10 checkpoint, in the same
    directory, redoes epochs 0 and 1 without duplicating their lines."""
    full = str(tmp_path / "full")
    again = str(tmp_path / "again")
    for out in (full, again):
        run_train(parse_config(toy_config(idx_dir, out, method="set", sparsity=0.5,
                                          epochs=2, save_every=10)))
    cfg = parse_config(toy_config(idx_dir, again, method="set", sparsity=0.5,
                                  epochs=2, save_every=10))
    run_train(cfg, resume_path=os.path.join(again, "step00000010.ckpt"))
    assert [r["epoch"] for r in read_metrics(again)] == [0, 1]
    for name in ("final.ckpt", "metrics.jsonl", "trajectory.csv", "cost.json"):
        with open(os.path.join(full, name), "rb") as fa, \
             open(os.path.join(again, name), "rb") as fb:
            assert fa.read() == fb.read(), name


def test_resume_rejects_missing_epoch_lines(idx_dir, tmp_path):
    out = str(tmp_path / "run")
    cfg = parse_config(toy_config(idx_dir, out, method="set", sparsity=0.5,
                                  epochs=2, save_every=40))
    run_train(cfg)
    path = os.path.join(out, "metrics.jsonl")
    os.remove(path)
    with pytest.raises(CheckpointError, match="metrics.jsonl"):
        run_train(cfg, resume_path=os.path.join(out, "step00000040.ckpt"))
    assert not os.path.exists(path)


def test_resume_rejects_wrong_schedule(idx_dir, tmp_path, set_run):
    _, ckpt = set_run
    other = parse_config(toy_config(idx_dir, str(tmp_path / "o"), method="set",
                                    sparsity=0.6, epochs=2))
    with pytest.raises(CheckpointError, match="digest"):
        run_train(other, resume_path=ckpt)


def test_resume_refuses_other_settings_or_data(idx_dir, tmp_path, set_run):
    """Everything outside [output] identifies the run, each data file by its
    content: another lr, or one changed byte of the training images, and the
    resume is refused before it writes anything."""
    _, ckpt = set_run
    out = tmp_path / "o"
    other_lr = parse_config(toy_config(idx_dir, str(out), method="set", sparsity=0.5, lr=0.05))
    with pytest.raises(CheckpointError, match="digest"):
        run_train(other_lr, resume_path=ckpt)
    data = tmp_path / "data"
    shutil.copytree(idx_dir, data)
    images = data / "train-images-idx3-ubyte"
    pixels = bytearray(images.read_bytes())
    pixels[-1] ^= 1
    images.write_bytes(bytes(pixels))
    other_data = parse_config(toy_config(str(data), str(out), method="set", sparsity=0.5))
    with pytest.raises(CheckpointError, match="digest"):
        run_train(other_data, resume_path=ckpt)
    assert not out.exists()


def test_resume_into_another_out_dir_with_moved_data_is_bitwise_identical(
        idx_dir, tmp_path, set_run):
    """[output] and where the data files lie are not part of the run."""
    cfg, _ = set_run
    mid = run_train(parse_config(toy_config(idx_dir, str(tmp_path / "a"), method="set",
                                            sparsity=0.5)), stop_after_step=20)
    data = tmp_path / "data"
    shutil.copytree(idx_dir, data)
    moved = parse_config(toy_config(str(data), str(tmp_path / "b"), method="set", sparsity=0.5,
                                    save_every=25))
    run_train(moved, resume_path=mid)
    for name in ("final.ckpt", "metrics.jsonl", "trajectory.csv", "cost.json"):
        with open(os.path.join(cfg.out_dir, name), "rb") as fa, \
             open(os.path.join(moved.out_dir, name), "rb") as fb:
            assert fa.read() == fb.read(), name


def test_resume_rejects_wrong_model(idx_dir, tmp_path, set_run):
    cfg, ckpt = set_run
    other = parse_config(toy_config(idx_dir, str(tmp_path / "o"), method="set",
                                    sparsity=0.5, epochs=2, model="mlp:144-32-10"))
    with pytest.raises(CheckpointError):
        run_train(other, resume_path=ckpt)


def test_save_every_writes_periodic_checkpoints(idx_dir, tmp_path):
    out = str(tmp_path / "periodic")
    cfg = parse_config(toy_config(idx_dir, out, epochs=1, save_every=10))
    run_train(cfg)
    names = sorted(n for n in os.listdir(out) if n.endswith(".ckpt"))
    assert names == ["final.ckpt", "step00000010.ckpt", "step00000020.ckpt"]
    # step 30 == total, so only the final checkpoint marks the end


def test_metrics_are_synced_before_each_checkpoint(idx_dir, tmp_path, monkeypatch):
    # a resume after an OS crash must find every epoch line its checkpoint
    # has completed, so each checkpoint follows a sync of all metrics bytes
    metrics = tmp_path / "synced" / "metrics.jsonl"
    events = []
    real_fsync, real_save = os.fsync, dstforge.train.save_checkpoint

    def fsync(fd):
        if os.fstat(fd).st_ino == metrics.stat().st_ino:
            events.append(("sync", os.fstat(fd).st_size))
        real_fsync(fd)

    def save(*args, **kwargs):
        events.append(("save", metrics.stat().st_size))
        real_save(*args, **kwargs)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(dstforge.train, "save_checkpoint", save)
    cfg = parse_config(toy_config(idx_dir, str(metrics.parent), epochs=2, save_every=10))
    run_train(cfg)
    saves = [i for i, (what, _) in enumerate(events) if what == "save"]
    assert len(saves) == 6  # steps 10 to 50, then final
    assert events[saves[-1]][1] > 0
    for i in saves:
        assert i > 0 and events[i - 1] == ("sync", events[i][1])


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_divergence_reports_step(idx_dir, tmp_path):
    out = str(tmp_path / "boom")
    cfg = parse_config(toy_config(idx_dir, out, epochs=1, lr=1e6))
    from dstforge.train import DivergenceError

    with pytest.raises(DivergenceError, match=r"step \d+"):
        run_train(cfg)


def test_echo_receives_epoch_lines(idx_dir, tmp_path):
    out = str(tmp_path / "echo")
    cfg = parse_config(toy_config(idx_dir, out, epochs=2))
    lines = []
    run_train(cfg, echo=lines.append)
    assert len(lines) == 2
    assert json.loads(lines[0])["epoch"] == 0


def test_eval_every_skips_interior_epochs(idx_dir, tmp_path):
    out = str(tmp_path / "ee")
    text = toy_config(idx_dir, out, epochs=3).replace(
        "[train]", "[train]\neval_every = 2")
    run_train(parse_config(text))
    records = read_metrics(out)
    assert records[0]["test_acc"] is None
    assert records[1]["test_acc"] is not None  # epoch 1 -> (1+1) % 2 == 0
    assert records[2]["test_acc"] is not None  # last epoch always evaluates


def test_masked_weights_stay_zero(set_run):
    # the momenta are read too, which a load for scoring skips
    _, ckpt = set_run
    ck = load_checkpoint(ckpt)
    mask = ck.mask()
    layers = {layer.name: layer for layer in ck.build_model().layers}
    for name in mask.names():
        layer = layers[name]
        assert np.all(layer.weight.data[~mask[name]] == 0.0)
        assert np.all(layer.weight.momentum[~mask[name]] == 0.0)
        assert mask.active_count(name) > 0


def test_run_config_allocation_modes(idx_dir, tmp_path):
    cfg = parse_config(toy_config(idx_dir, str(tmp_path / "x"), method="set",
                                  sparsity=0.5))
    alloc = cfg.allocation()
    assert alloc is not DENSE and alloc.global_density == pytest.approx(0.5)
    assert [lb.name for lb in alloc.layers] == ["fc1", "fc2"]
    dense_cfg = parse_config(toy_config(idx_dir, str(tmp_path / "y")))
    assert dense_cfg.allocation() is DENSE


def test_load_train_test_shapes(set_run):
    # a run holds its splits as the files' bytes: uint8 pixels that convert
    # to the bytes of the float sets `load_idx` gives, and int64 labels
    cfg, _ = set_run
    train, test = load_train_test(cfg)
    for (x, y), images, labels, n in ((train, cfg.train_images[0], cfg.train_labels[0], 1500),
                                      (test, cfg.test_images, cfg.test_labels, 400)):
        assert x.shape == (n, 1, 12, 12) and x.dtype == np.uint8
        assert y.shape == (n,) and y.dtype == np.int64
        s = load_idx(images, labels)
        assert _unit_floats(x).tobytes() == s.images.tobytes()
        assert y.tobytes() == s.labels.tobytes()


def split_idx_config(idx_dir: str, d: str, parts: list) -> str:
    """A one-epoch `toy_config` training on `parts`, (images, labels) pairs
    written as IDX pairs `split<i>` into `d`."""
    for i, (imgs, labels) in enumerate(parts):
        write_idx_pair(d, f"split{i}", imgs, labels)
    names = range(len(parts))
    text = toy_config(idx_dir, f"{d}/run", epochs=1)
    text = text.replace(f"train = {idx_dir}/train-images-idx3-ubyte", "train = " + ", ".join(
        f"{d}/split{i}-images-idx3-ubyte" for i in names))
    return text.replace(f"train_labels = {idx_dir}/train-labels-idx1-ubyte", "train_labels = "
                        + ",".join(f"{d}/split{i}-labels-idx1-ubyte" for i in names))


def test_split_idx_training_files_concatenate_and_train(idx_dir, tmp_path):
    # `[data] train = a,b` with IDX files: both files load, in config order,
    # and the run trains through every step the config counted
    parts = [make_blob_set(300, seed=10 + i) for i in range(2)]
    cfg = parse_config(split_idx_config(idx_dir, str(tmp_path), parts))
    assert cfg.n_train == 600 and cfg.steps_per_epoch == 12
    (x, y), _ = load_train_test(cfg)
    assert x.shape == (600, 1, 12, 12) and x.dtype == np.uint8
    np.testing.assert_array_equal(x[:, 0], np.rint(np.concatenate([p[0] for p in parts]) * 255))
    np.testing.assert_array_equal(y, np.concatenate([p[1] for p in parts]))
    ckpt = run_train(cfg)
    assert load_checkpoint(ckpt).step == 12
    assert len(read_metrics(cfg.out_dir)) == 1


def cifar_config(train: str, test: str, out_dir: str) -> str:
    return f"""
[data]
dataset = blobs
format = cifar
train = {train}
test = {test}

[train]
model = small_convnet:3x32x32-10
epochs = 2
seed = 3
bs = 10
lrs = step

[dst]
method = rigl
sparsity = 0.5
delta_t = 2

[output]
dir = {out_dir}
"""


def test_split_cifar_training_files_concatenate_and_train(tmp_path):
    # `[data] train = a.bin,b.bin`: the run trains through every step the
    # config counted, on the records of both files in order, to the bytes of
    # a run on one file holding the same records
    d = str(tmp_path)
    parts = [color_blobs(30, seed=20 + i) for i in range(2)]
    a, b = (write_cifar(f"{d}/part{i}.bin", *part) for i, part in enumerate(parts))
    whole = write_cifar(f"{d}/whole.bin", *map(np.concatenate, zip(*parts)))
    test = write_cifar(f"{d}/test.bin", *color_blobs(12, seed=22))
    split_cfg = parse_config(cifar_config(f"{a}, {b}", test, f"{d}/split"))
    whole_cfg = parse_config(cifar_config(whole, test, f"{d}/whole"))
    assert split_cfg.n_train == 60 and split_cfg.total_steps == 12
    (x, y), _ = load_train_test(split_cfg)
    (wx, wy), _ = load_train_test(whole_cfg)
    assert x.shape == (60, 3, 32, 32) and x.tobytes() == wx.tobytes()
    assert y.tobytes() == wy.tobytes()
    split, whole_run = load_checkpoint(run_train(split_cfg)), load_checkpoint(run_train(whole_cfg))
    assert split.step == 12 and len(read_metrics(split_cfg.out_dir)) == 2
    for (name, *got), (want_name, *want) in zip(split.layers, whole_run.layers, strict=True):
        assert name == want_name and [a.tobytes() for a in got] == [a.tobytes() for a in want]
    assert split.masks.keys() == whole_run.masks.keys()
    assert all(split.masks[k].tobytes() == m.tobytes() for k, m in whole_run.masks.items())
    assert read_metrics(split_cfg.out_dir) == read_metrics(whole_cfg.out_dir)


@pytest.mark.parametrize("layout", ["idx", "idx2", "cifar2"])
def test_a_run_opens_each_data_file_once_and_its_digest_names_their_bytes(
        idx_dir, tmp_path, monkeypatch, layout):
    if layout == "idx":
        cfg = parse_config(toy_config(idx_dir, str(tmp_path / "run"), epochs=1))
    elif layout == "idx2":
        parts = [make_blob_set(100, seed=40 + i) for i in range(2)]
        cfg = parse_config(split_idx_config(idx_dir, str(tmp_path), parts))
    else:
        d = str(tmp_path)
        parts = [write_cifar(f"{d}/part{i}.bin", *color_blobs(10, seed=30 + i)) for i in range(2)]
        test = write_cifar(f"{d}/test.bin", *color_blobs(10, seed=32))
        cfg = parse_config(cifar_config(",".join(parts), test, f"{d}/run").replace(
            "epochs = 2", "epochs = 1"))
    data_paths = {*cfg.train_images, *cfg.train_labels, cfg.test_images, cfg.test_labels} - {None}
    opened = []
    real_open = open

    def counting_open(path, *args, **kwargs):
        opened.append(os.fspath(path))
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    ckpt = run_train(cfg)
    monkeypatch.undo()
    assert len(data_paths) == {"idx": 4, "idx2": 6, "cifar2": 3}[layout]
    assert {p: opened.count(p) for p in data_paths} == dict.fromkeys(data_paths, 1)
    assert load_checkpoint(ckpt).run_digest == cfg.digest()


def test_split_idx_label_count_must_match(idx_dir, tmp_path):
    text = toy_config(idx_dir, str(tmp_path / "run"))
    text = text.replace(f"train = {idx_dir}/train-images-idx3-ubyte",
                        f"train = {idx_dir}/train-images-idx3-ubyte,{idx_dir}/t10k-images-idx3-ubyte")
    with pytest.raises(ConfigError, match="train_labels names 1"):
        parse_config(text)


def test_run_eval_exactly_one_argument(set_run, blob_test_set):
    _, ckpt = set_run
    with pytest.raises(ValueError):
        run_eval(ckpt)
    with pytest.raises(ValueError):
        run_eval(ckpt, corrupted_sets={}, attenuation=(blob_test_set, "low", [2]))


def test_run_eval_corrupted_sets(set_run, blob_test_set):
    _, ckpt = set_run
    spec = CorruptionSpec("gaussian_noise", 1, seed=0)
    noisy = ImageSet(images=corrupt_images(blob_test_set.images, spec),
                     labels=blob_test_set.labels, name="noisy")
    report = run_eval(ckpt, corrupted_sets={("gaussian_noise", 1): noisy})
    model, _ = load_model_from_checkpoint(ckpt)
    assert report.mean == pytest.approx(accuracy(model, noisy))


def test_a_model_loaded_for_scoring_holds_no_momentum_and_refuses_to_train(
        set_run, blob_test_set, tmp_path):
    _, ckpt = set_run
    model, ck = load_model_from_checkpoint(ckpt)
    assert all(p.momentum is None for p in model.parameters())
    assert all(wm is None and bm is None for _, _, _, wm, bm in ck.layers)
    x, y = blob_test_set.images, blob_test_set.labels
    full = load_checkpoint(ckpt).build_model()
    assert model.predict(x).tobytes() == full.predict(x).tobytes()

    before = [p.data.copy() for p in model.parameters()]
    tape = []
    _, dlogits = softmax_cross_entropy(model.forward(x[:10], tape), y[:10])
    backward(model.layers, tape, dlogits)
    with pytest.raises(ValueError, match="parameter 'fc1.weight' has no momentum buffer"):
        sgd_momentum_step(model.parameters(), lr=0.1, momentum=0.9)
    assert all(np.array_equal(a, p.data) for a, p in zip(before, model.parameters()))
    # nor is it written back as a checkpoint with made-up momenta
    out = tmp_path / "scored.ckpt"
    with pytest.raises(ValueError, match="parameter 'fc1.weight' has no momentum buffer"):
        save_checkpoint(out, model, ck.mask(), ck.step, np.random.default_rng(0),
                        DstConfig(**ck.dst_config), ck.seed, ck.run_digest,
                        BudgetTrajectory(ck.trajectory), ck.epoch_loss_sum, ck.epoch_loss_count)
    assert not out.exists()


def test_run_eval_accepts_file_paths(set_run, blob_test_set, tmp_path):
    from dstforge.data import save_image_set

    _, ckpt = set_run
    p = str(tmp_path / "clean.bin")
    save_image_set(blob_test_set, p)
    report = run_eval(ckpt, corrupted_sets={("clean", 1): p})
    assert 0.0 <= report.mean <= 1.0


def test_run_eval_attenuation_returns_curve(set_run, blob_test_set):
    _, ckpt = set_run
    curve = run_eval(ckpt, attenuation=(blob_test_set, "high", (0, 2, 4)))
    assert isinstance(curve, RACurve)
    assert [r for r, _ in curve.points] == [0, 2, 4]


def test_a_step_that_is_both_periodic_and_the_stop_saves_once(idx_dir, tmp_path, monkeypatch):
    saved = []
    real_save = dstforge.train.save_checkpoint

    def counting_save(path, *args, **kwargs):
        saved.append(os.path.basename(path))
        return real_save(path, *args, **kwargs)

    monkeypatch.setattr(dstforge.train, "save_checkpoint", counting_save)
    cfg = parse_config(toy_config(idx_dir, str(tmp_path / "run"), epochs=1, save_every=10))
    last = run_train(cfg, stop_after_step=20)
    assert saved == ["step00000010.ckpt", "step00000020.ckpt"]
    assert last == os.path.join(cfg.out_dir, "step00000020.ckpt")
    assert load_checkpoint(last).step == 20


def test_a_dense_override_naming_no_layer_is_a_config_error(idx_dir, tmp_path):
    out = tmp_path / "run"
    sparse = toy_config(idx_dir, str(out), method="set", sparsity=0.5,
                        extra_dst="dense_overrides = fc9")
    dense = toy_config(idx_dir, str(out)) + "\n[dst]\ndense_overrides = fc1, fc9\n"
    for text in (sparse, dense):
        with pytest.raises(ConfigError, match=r"\[dst\] dense_overrides: .*no layer fc9"):
            parse_config(text)
        assert not out.exists()


def test_an_infeasible_budget_is_a_config_error(idx_dir, tmp_path):
    out = tmp_path / "run"
    overridden = toy_config(idx_dir, str(out), method="set", sparsity=0.9,
                            extra_dst="dense_overrides = fc1")
    # no budget below 1 is left once every layer is overridden
    all_dense = toy_config(idx_dir, str(out), method="set", sparsity=0.1,
                           model="mlp:144-16-10", extra_dst="dense_overrides = fc1, fc2")
    too_small = toy_config(idx_dir, str(out), method="set", sparsity=0.5,
                           model="mlp:144-1-10")
    for text, message in ((overridden, "covering 9216/9856 weights"),
                          (all_dense, "global density 0.9 infeasible"),
                          (too_small, "'fc1' is too small")):
        with pytest.raises(ConfigError, match=r"\[dst\] .*" + message):
            parse_config(text)
        assert not out.exists()


@pytest.mark.parametrize("method", ["set", "rigl", "mest_r", "mest_g", "granet_r", "granet_g"])
def test_a_dense_override_stays_dense_through_topology_events(idx_dir, tmp_path, method):
    # an event removes no weight it could only regrow where it just removed one
    cfg = parse_config(toy_config(idx_dir, str(tmp_path / "run"), method=method,
                                  sparsity=0.5, epochs=1, delta_t=10,
                                  extra_dst="dense_overrides = fc2"))
    ck = load_checkpoint(run_train(cfg))
    mask = ck.mask()
    assert mask["fc2"].all()
    assert mask.active_count("fc1") < mask["fc1"].size
    with open(os.path.join(cfg.out_dir, "trajectory.csv")) as fh:
        assert len(fh.readlines()) >= 4  # header, step 0 and two events



# Trains every config named on the command line, then writes the dense
# predict logits of each run's final.ckpt on its test set next to it.
# Importing dstforge.cli first turns DSTFORGE_THREADS into the BLAS thread
# variables before numpy loads.
_TRAIN_AND_PREDICT = """
import os, sys
from dstforge.cli import main
from dstforge.checkpoint import load_checkpoint
from dstforge.config import load_config
from dstforge.data import load_image_set

for path in sys.argv[1:]:
    assert main(["train", path]) == 0
    cfg = load_config(path)
    model = load_checkpoint(os.path.join(cfg.out_dir, "final.ckpt")).build_model()
    logits = model.predict(load_image_set(cfg.test_images).images)
    with open(os.path.join(cfg.out_dir, "logits.bin"), "wb") as fh:
        fh.write(logits.tobytes())
"""


def _convnet_config(train: str, test: str, out_dir: str, method: str) -> str:
    dst = "" if method == "dense" else f"""
[dst]
method = {method}
sparsity = 0.5
sparsity_dist = erk
delta_t = 2
p = 0.2
"""
    return f"""[data]
dataset = blobs
format = cifar
train = {train}
test = {test}
classes = 10

[train]
model = small_convnet:3x32x32-10
epochs = 1
seed = 3
lr = 0.05
bs = 20
lrs = step
wd = 1e-4
momentum = 0.9

[output]
dir = {out_dir}
{dst}"""


def test_convnet_training_and_predict_bytes_do_not_depend_on_the_thread_count(tmp_path):
    """small_convnet at the benchmark's 3x32x32 shape, dense and RigL (whose
    events regrow by the step's gradient), trained at 1 and at 2 BLAS threads: the
    final checkpoints and the predict logits must match byte for byte. The
    test set spans two inference chunks and a ragged tail. The MLP is left
    out: its fc1 forward GEMM (K = 784) gives different bytes at 1 and 2
    OpenBLAS threads, which ROADMAP.md item 1 (thread-invariant arithmetic)
    is to fix."""
    paths = {}
    for name, n, seed in (("train", 60, 1), ("test", 37, 2)):
        imgs, labels = make_blob_set(n, seed=seed, side=32)
        paths[name] = str(tmp_path / f"{name}.bin")
        save_image_set(ImageSet(np.repeat(imgs[:, None], 3, axis=1), labels.astype(np.int64)),
                       paths[name])
    runs = {}
    for threads in (1, 2):
        configs = []
        for method in ("dense", "rigl"):
            runs[method, threads] = tmp_path / f"{method}-t{threads}"
            configs.append(tmp_path / f"{method}-t{threads}.ini")
            configs[-1].write_text(_convnet_config(paths["train"], paths["test"],
                                                   str(runs[method, threads]), method))
        r = subprocess.run([sys.executable, "-c", _TRAIN_AND_PREDICT, *map(str, configs)],
                           env=dict(os.environ, DSTFORGE_THREADS=str(threads)),
                           capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
    for method in ("dense", "rigl"):
        for name in ("final.ckpt", "logits.bin"):
            one, two = ((runs[method, t] / name).read_bytes() for t in (1, 2))
            assert one == two, f"{method} {name}"


_STEADY_STATE_FAULTS = """
import resource
import numpy as np
from dstforge.models import build_model, parse_model_spec
from dstforge.optim import sgd_momentum_step
from dstforge.tensor import backward, softmax_cross_entropy

model = build_model(parse_model_spec("small_convnet:3x32x32-10"), np.random.default_rng(0))
rng = np.random.default_rng(1)
x = rng.random((20, 3, 32, 32)).astype(np.float32)
labels = rng.integers(0, 10, 20)

def step():
    model.zero_grad()
    tape = []
    _, dlogits = softmax_cross_entropy(model.forward(x, tape), labels)
    backward(model.layers, tape, dlogits)
    sgd_momentum_step(model.parameters(), lr=0.01, momentum=0.9, weight_decay=1e-4)

for _ in range(3):
    step()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    step()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _libc_has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not _libc_has_mallopt(), reason="libc has no mallopt")
def test_convnet_training_steps_take_no_page_faults_once_warm():
    """Importing dstforge.tensor keeps freed memory in the process, so once
    the first steps have grown the heap, a training step reuses it instead of
    faulting fresh pages in. Run in a fresh process, where the policy is set
    at import; with glibc's defaults these five steps take thousands of
    minor faults."""
    r = subprocess.run([sys.executable, "-c", _STEADY_STATE_FAULTS],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert int(r.stdout) < 100
