"""Trainer behavior: artifacts, determinism, resume, divergence, evaluation."""

import json
import os

import numpy as np
import pytest

from conftest import make_blob_set, toy_config, write_idx_pair

import dstforge.data
from dstforge.checkpoint import CheckpointError, load_checkpoint
from dstforge.config import ConfigError, parse_config
from dstforge.corruption import CorruptionSpec, corrupt_images
from dstforge.data import ImageSet
from dstforge.metrics import accuracy
from dstforge.spectral import RACurve
from dstforge.train import (
    load_model_from_checkpoint,
    load_train_test,
    make_allocation,
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
    assert ck.mask() is None


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


def test_resume_is_bitwise_identical(idx_dir, tmp_path):
    """Stop mid-epoch, resume, and compare every artifact byte for byte."""
    text_full = toy_config(idx_dir, str(tmp_path / "full"), method="set",
                           sparsity=0.5, epochs=2)
    text_split = toy_config(idx_dir, str(tmp_path / "split"), method="set",
                            sparsity=0.5, epochs=2)
    run_train(parse_config(text_full))
    cfg_split = parse_config(text_split)
    mid = run_train(cfg_split, stop_after_step=37)  # mid-epoch, off the update grid
    assert mid.endswith("step00000037.ckpt")
    run_train(cfg_split, resume_path=mid)
    for name in ("final.ckpt", "metrics.jsonl", "trajectory.csv", "cost.json"):
        with open(os.path.join(tmp_path, "full", name), "rb") as fa, \
             open(os.path.join(tmp_path, "split", name), "rb") as fb:
            assert fa.read() == fb.read(), name


def test_resume_rejects_wrong_schedule(idx_dir, tmp_path, set_run):
    _, ckpt = set_run
    other = parse_config(toy_config(idx_dir, str(tmp_path / "o"), method="set",
                                    sparsity=0.6, epochs=2))
    with pytest.raises(CheckpointError, match="digest"):
        run_train(other, resume_path=ckpt)


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
    _, ckpt = set_run
    model, ck = load_model_from_checkpoint(ckpt)
    mask = ck.mask()
    for name in mask.names():
        layer = model.layer_by_name(name)
        assert np.all(layer.weight.data[~mask[name]] == 0.0)
        assert np.all(layer.weight.momentum[~mask[name]] == 0.0)
        assert mask.active_count(name) > 0


def test_make_allocation_modes(idx_dir, tmp_path):
    cfg = parse_config(toy_config(idx_dir, str(tmp_path / "x"), method="set",
                                  sparsity=0.5))
    from dstforge.models import build_model

    model = build_model(cfg.model, np.random.default_rng(0))
    alloc = make_allocation(cfg, model)
    assert alloc is not None and alloc.global_density == pytest.approx(0.5)
    dense_cfg = parse_config(toy_config(idx_dir, str(tmp_path / "y")))
    assert make_allocation(dense_cfg, model) is None


def test_load_train_test_shapes(set_run):
    cfg, _ = set_run
    train, test = load_train_test(cfg)
    assert train.images.shape == (1500, 1, 12, 12)
    assert test.images.shape == (400, 1, 12, 12)
    assert train.fmt == "idx"


def test_split_idx_training_files_concatenate_and_train(idx_dir, tmp_path):
    # `[data] train = a,b` with IDX files: both files load, in config order,
    # and the run trains through every step the config counted
    d = str(tmp_path)
    parts = [make_blob_set(300, seed=10 + i) for i in range(2)]
    for i, (imgs, labels) in enumerate(parts):
        write_idx_pair(d, f"split{i}", imgs, labels)
    text = toy_config(idx_dir, str(tmp_path / "run"), epochs=1)
    text = text.replace(f"train = {idx_dir}/train-images-idx3-ubyte",
                        f"train = {d}/split0-images-idx3-ubyte, {d}/split1-images-idx3-ubyte")
    text = text.replace(f"train_labels = {idx_dir}/train-labels-idx1-ubyte",
                        f"train_labels = {d}/split0-labels-idx1-ubyte,{d}/split1-labels-idx1-ubyte")
    cfg = parse_config(text)
    assert cfg.n_train == 600 and cfg.steps_per_epoch == 12
    train, _ = load_train_test(cfg)
    assert train.images.shape == (600, 1, 12, 12)
    np.testing.assert_array_equal(train.labels, np.concatenate([p[1] for p in parts]))
    ckpt = run_train(cfg)
    assert load_checkpoint(ckpt).step == 12
    assert len(read_metrics(cfg.out_dir)) == 1


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
