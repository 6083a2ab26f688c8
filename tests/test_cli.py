"""Command-line interface: every subcommand end to end, plus exit codes."""

import json
import os
import shutil

import numpy as np
import pytest

from conftest import fail_atomic_writes, make_blob_set, run_cli, toy_config, write_idx_pair

import dstforge.spectral
from dstforge.checkpoint import save_checkpoint
from dstforge.cli import main
from dstforge.corruption import KINDS
from dstforge.data import load_image_set, save_image_set
from dstforge.models import build_model, parse_model_spec
from dstforge.schedulers import BudgetTrajectory, DstConfig
from dstforge.sparsity import TopologyMask


@pytest.fixture(scope="module")
def cli_run(idx_dir, tmp_path_factory):
    """A small SET run trained through the CLI itself."""
    root = tmp_path_factory.mktemp("cli")
    out = str(root / "run")
    cfg_path = str(root / "run.ini")
    with open(cfg_path, "w") as fh:
        fh.write(toy_config(idx_dir, out, method="set", sparsity=0.5, epochs=1))
    code = main(["train", cfg_path])
    assert code == 0
    return out, cfg_path


def test_train_prints_epoch_lines_and_checkpoint(idx_dir, tmp_path, capsys):
    out = str(tmp_path / "run")
    cfg_path = str(tmp_path / "run.ini")
    with open(cfg_path, "w") as fh:
        fh.write(toy_config(idx_dir, out, epochs=1))
    code, stdout, _ = run_cli(capsys, "train", cfg_path)
    assert code == 0
    lines = stdout.strip().splitlines()
    assert json.loads(lines[0])["epoch"] == 0
    assert lines[-1].startswith("checkpoint: ")
    assert os.path.exists(os.path.join(out, "final.ckpt"))


def test_train_missing_config_exits_2(capsys):
    code, _, err = run_cli(capsys, "train", "/nonexistent/run.ini")
    assert code == 2
    assert "config error" in err


def test_train_bad_data_path_exits_2(idx_dir, tmp_path, capsys):
    cfg_path = str(tmp_path / "run.ini")
    text = toy_config(idx_dir, str(tmp_path / "o")).replace(
        "train-images-idx3-ubyte", "gone-images-idx3-ubyte")
    with open(cfg_path, "w") as fh:
        fh.write(text)
    code, _, err = run_cli(capsys, "train", cfg_path)
    assert code == 2
    assert "does not exist" in err


def test_train_model_that_does_not_fit_the_data_exits_2_before_writing(
        idx_dir, tmp_path, capsys):
    out = tmp_path / "o"
    cfg_path = str(tmp_path / "run.ini")
    for model in ("mlp:100-64-10", "small_convnet:3x32x32-10", "mlp:144-64-5"):
        with open(cfg_path, "w") as fh:
            fh.write(toy_config(idx_dir, str(out), model=model))
        code, _, err = run_cli(capsys, "train", cfg_path)
        assert code == 2, err
        assert "config error" in err and model in err
        assert not out.exists()


def write_empty_idx_test_set(idx_dir: str, d) -> str:
    """A 0-image IDX pair of the toy image size; returns the images path."""
    write_idx_pair(str(d), "empty", np.zeros((0, 12, 12), dtype=np.float32),
                   np.zeros(0, dtype=np.uint8))
    return f"{d}/empty-images-idx3-ubyte"


def test_train_empty_test_set_exits_2_before_writing(idx_dir, tmp_path, capsys):
    out = tmp_path / "o"
    empty = write_empty_idx_test_set(idx_dir, tmp_path)
    text = toy_config(idx_dir, str(out)).replace(
        f"test = {idx_dir}/t10k-images-idx3-ubyte", f"test = {empty}").replace(
        f"test_labels = {idx_dir}/t10k-labels-idx1-ubyte",
        f"test_labels = {tmp_path}/empty-labels-idx1-ubyte")
    cfg_path = str(tmp_path / "run.ini")
    with open(cfg_path, "w") as fh:
        fh.write(text)
    code, stdout, err = run_cli(capsys, "train", cfg_path)
    assert code == 2
    assert stdout == "" and err.startswith(f"config error: [data] test {empty} holds no images")
    assert not out.exists()


@pytest.mark.parametrize("split, prefix", [("train", "train"), ("test", "t10k")])
def test_train_idx_split_without_a_labels_file_exits_2_before_writing(
        idx_dir, tmp_path, capsys, split, prefix):
    # `<split>.idx` has no 'images' in its name, so no labels file is found
    # beside it, and the config names none
    out, images = tmp_path / "o", tmp_path / f"{split}.idx"
    shutil.copy(f"{idx_dir}/{prefix}-images-idx3-ubyte", images)
    text = "\n".join(f"{split} = {images}" if line.startswith(f"{split} = ") else line
                     for line in toy_config(idx_dir, str(out)).splitlines()
                     if not line.startswith(f"{split}_labels"))
    cfg_path = str(tmp_path / "run.ini")
    with open(cfg_path, "w") as fh:
        fh.write(text)
    code, stdout, err = run_cli(capsys, "train", cfg_path)
    assert code == 2 and stdout == ""
    assert err.startswith(f"config error: [data] {split}_labels: no labels file for {images};")
    assert not out.exists()


@pytest.mark.parametrize("method", ["set", "granet_g"])
def test_train_sparse_method_without_sparsity_exits_2(idx_dir, tmp_path, capsys, method):
    # no `sparsity` key: the default 0 would leave every weight active
    out = tmp_path / "o"
    text = toy_config(idx_dir, str(out), method=method).replace("sparsity = 0.0\n", "")
    assert "sparsity =" not in text
    cfg_path = str(tmp_path / "run.ini")
    with open(cfg_path, "w") as fh:
        fh.write(text)
    code, stdout, err = run_cli(capsys, "train", cfg_path)
    assert code == 2
    assert stdout == ""
    assert err.startswith(f"config error: [dst] sparsity must be in (0, 1) for {method}, got 0.0")
    assert not out.exists()


def test_train_output_dir_that_is_a_file_exits_2(idx_dir, tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("not a directory")
    cfg_path = str(tmp_path / "run.ini")
    for out in (taken, taken / "run"):
        with open(cfg_path, "w") as fh:
            fh.write(toy_config(idx_dir, str(out)))
        code, stdout, err = run_cli(capsys, "train", cfg_path)
        assert code == 2
        assert stdout == "" and err.startswith(f"config error: [output] dir {out}: {taken} exists")
    assert taken.read_text() == "not a directory"


def test_corrupt_writes_named_files(idx_dir, tmp_path, capsys):
    out = str(tmp_path / "corr")
    code, stdout, _ = run_cli(
        capsys, "corrupt", f"{idx_dir}/t10k-images-idx3-ubyte",
        "--kinds", "gaussian_noise,contrast", "--severities", "1,3",
        "--out", out, "--seed", "5")
    assert code == 0
    names = sorted(os.path.basename(p) for p in stdout.strip().splitlines())
    assert names == [
        "t10k-images-idx3-ubyte-contrast-s1.bin",
        "t10k-images-idx3-ubyte-contrast-s3.bin",
        "t10k-images-idx3-ubyte-gaussian_noise-s1.bin",
        "t10k-images-idx3-ubyte-gaussian_noise-s3.bin",
    ]
    s = load_image_set(os.path.join(out, names[0]))
    assert len(s) == 400


def test_corrupt_rejects_unknown_kind(idx_dir, capsys):
    code, _, err = run_cli(capsys, "corrupt", f"{idx_dir}/t10k-images-idx3-ubyte",
                           "--kinds", "contrast,sepia")
    assert code == 2
    assert err == f"config error: --kinds must be one of {', '.join(KINDS)}, got 'sepia'\n"


def test_corrupt_rejects_bad_severity(idx_dir, capsys):
    code, _, err = run_cli(capsys, "corrupt", f"{idx_dir}/t10k-images-idx3-ubyte",
                           "--severities", "1,9")
    assert code == 2
    assert err == "config error: --severities must be one of 1..5, got 9\n"


def test_corrupt_rejects_a_negative_seed_in_one_line(idx_dir, tmp_path, capsys):
    code, stdout, err = run_cli(capsys, "corrupt", f"{idx_dir}/t10k-images-idx3-ubyte",
                                "--seed", "-1", "--out", str(tmp_path / "corr"))
    assert code == 2
    assert stdout == "" and err == "config error: --seed must be a non-negative int, got -1\n"
    assert not (tmp_path / "corr").exists()


def test_train_negative_seed_exits_2_before_writing(idx_dir, tmp_path, capsys):
    out = tmp_path / "o"
    cfg_path = str(tmp_path / "run.ini")
    with open(cfg_path, "w") as fh:
        fh.write(toy_config(idx_dir, str(out), seed=-1))
    code, stdout, err = run_cli(capsys, "train", cfg_path)
    assert code == 2
    assert stdout == "" and err == "config error: [train] seed must be >= 0, got -1\n"
    assert not out.exists()


def test_corrupt_rejects_empty_severity_list(idx_dir, tmp_path, capsys):
    code, stdout, err = run_cli(capsys, "corrupt", f"{idx_dir}/t10k-images-idx3-ubyte",
                                "--severities", ",", "--out", str(tmp_path / "corr"))
    assert code == 2
    assert stdout == "" and "--severities" in err
    assert not (tmp_path / "corr").exists()


def test_corrupt_renders_and_writes_one_cell_at_a_time(idx_dir, tmp_path, capsys, monkeypatch):
    """Each call renders a single cell, and each file equals that cell
    rendered by itself, printed once in kind-major order."""
    import dstforge.cli
    from dstforge.corruption import build_corrupted_set
    from dstforge.data import load_idx, parse_corrupted_set_filename

    cells_per_call = []

    def one_call(clean, kinds, severities, seed):
        cells_per_call.append(len(kinds) * len(severities))
        return build_corrupted_set(clean, kinds, severities, seed=seed)

    monkeypatch.setattr(dstforge.cli, "build_corrupted_set", one_call)
    images = f"{idx_dir}/t10k-images-idx3-ubyte"
    code, stdout, _ = run_cli(capsys, "corrupt", images, "--kinds", "shot_noise,pixelate,shot_noise",
                              "--severities", "2,5,2", "--out", str(tmp_path), "--seed", "3")
    assert code == 0
    assert cells_per_call == [1, 1, 1, 1]
    cells = [parse_corrupted_set_filename(p)[1:] for p in stdout.strip().splitlines()]
    assert cells == [(k, s) for k in ("shot_noise", "pixelate") for s in (2, 5)]
    clean = load_idx(images, f"{idx_dir}/t10k-labels-idx1-ubyte")
    alone_path = str(tmp_path / "alone")
    for p, cell in zip(stdout.strip().splitlines(), cells):
        save_image_set(build_corrupted_set(clean, *zip(cell), seed=3)[cell], alone_path)
        with open(p, "rb") as written, open(alone_path, "rb") as alone:
            assert written.read() == alone.read()


def test_corrupt_missing_dataset_exits_3(tmp_path, capsys):
    code, _, err = run_cli(capsys, "corrupt", str(tmp_path / "none.bin"))
    assert code == 3
    assert "data error" in err


def test_corrupt_cifar_file_cut_mid_record_exits_3(tmp_path, capsys):
    """A CIFAR batch missing the tail of its last record is named as such,
    not reported as an IDX file without labels."""
    cut = tmp_path / "batch.bin"
    cut.write_bytes(bytes(2 * 3073 - 100))
    code, stdout, err = run_cli(capsys, "corrupt", str(cut), "--out", str(tmp_path / "corr"))
    assert code == 3
    assert stdout == ""
    assert "3073-byte CIFAR records (size 6046)" in err
    assert not (tmp_path / "corr").exists()


def test_corrupt_raw_idx_images_without_labels_beside_exits_3(idx_dir, tmp_path, capsys):
    lonely = tmp_path / "lonely-images-idx3-ubyte"
    with open(f"{idx_dir}/t10k-images-idx3-ubyte", "rb") as fh:
        lonely.write_bytes(fh.read())
    code, _, err = run_cli(capsys, "corrupt", str(lonely), "--out", str(tmp_path / "corr"))
    assert code == 3
    assert "cannot infer labels file" in err


def test_evaluate_reports_cells(cli_run, idx_dir, tmp_path, capsys):
    out, _ = cli_run
    corr = str(tmp_path / "sets")
    assert run_cli(capsys, "corrupt", f"{idx_dir}/t10k-images-idx3-ubyte",
                   "--kinds", "brightness", "--severities", "1,2", "--out", corr)[0] == 0
    csv_path = str(tmp_path / "cells.csv")
    json_path = str(tmp_path / "report.json")
    code, stdout, _ = run_cli(
        capsys, "evaluate", os.path.join(out, "final.ckpt"),
        "--sets", corr, "--csv", csv_path, "--json", json_path)
    assert code == 0
    doc = json.loads(stdout)
    assert doc["model"] == "mlp:144-64-10"
    kinds = {(c["kind"], c["severity"]) for c in doc["cells"]}
    assert kinds == {("brightness", 1), ("brightness", 2)}
    assert 0.0 <= doc["mean_robustness_accuracy"] <= 1.0
    with open(csv_path) as fh:
        assert fh.readline().strip() == "kind,severity,accuracy"
    assert json.load(open(json_path)) == doc


def test_evaluate_with_baseline_gains(cli_run, idx_dir, tmp_path, capsys):
    out, _ = cli_run
    corr = str(tmp_path / "sets")
    run_cli(capsys, "corrupt", f"{idx_dir}/t10k-images-idx3-ubyte",
            "--kinds", "gaussian_noise", "--severities", "1", "--out", corr)
    ckpt = os.path.join(out, "final.ckpt")
    code, stdout, _ = run_cli(capsys, "evaluate", ckpt, "--sets", corr,
                              "--baseline", ckpt)
    assert code == 0
    doc = json.loads(stdout)
    assert doc["mean_relative_gain"] == pytest.approx(0.0)
    assert doc["per_kind_relative_gain"]["gaussian_noise"] == pytest.approx(0.0)


def test_evaluate_baseline_in_one_pass_matches_single_runs(
        cli_run, dense_run, idx_dir, tmp_path, capsys, monkeypatch):
    import dstforge.metrics

    out, _ = cli_run
    corr = str(tmp_path / "sets")
    assert run_cli(capsys, "corrupt", f"{idx_dir}/t10k-images-idx3-ubyte",
                   "--kinds", "gaussian_noise,contrast", "--severities", "2,4",
                   "--out", corr)[0] == 0
    ckpt, baseline = os.path.join(out, "final.ckpt"), dense_run[1]
    single = [json.loads(run_cli(capsys, "evaluate", c, "--sets", corr)[1])
              for c in (ckpt, baseline)]
    loads = []
    load = dstforge.metrics.load_image_set
    monkeypatch.setattr(dstforge.metrics, "load_image_set",
                        lambda p, *a, **k: loads.append(p) or load(p, *a, **k))
    code, stdout, _ = run_cli(capsys, "evaluate", ckpt, "--sets", corr, "--baseline", baseline)
    assert code == 0
    assert sorted(loads) == sorted(os.path.join(corr, f) for f in os.listdir(corr))
    doc = json.loads(stdout)
    assert doc["cells"] == single[0]["cells"]
    assert doc["mean_robustness_accuracy"] == single[0]["mean_robustness_accuracy"]
    assert doc["baseline"] == single[1]["model"]
    base_cells = {(c["kind"], c["severity"]): c["accuracy"] for c in single[1]["cells"]}
    for kind, gain in doc["per_kind_relative_gain"].items():
        base = np.mean([a for (k, _), a in base_cells.items() if k == kind])
        mine = np.mean([c["accuracy"] for c in doc["cells"] if c["kind"] == kind])
        assert gain == pytest.approx((mine - base) / base)
    assert doc["mean_relative_gain"] == pytest.approx(
        (doc["mean_robustness_accuracy"] - single[1]["mean_robustness_accuracy"])
        / single[1]["mean_robustness_accuracy"])


def test_evaluate_baseline_scoring_zero_on_a_kind_exits_3(cli_run, tmp_path, capsys):
    """A baseline that gets every image of a kind wrong leaves the relative
    gain undefined: a data error naming the kind, not a traceback."""
    from dstforge.checkpoint import save_checkpoint
    from dstforge.data import ImageSet
    from dstforge.models import build_model, parse_model_spec
    from dstforge.schedulers import BudgetTrajectory, DstConfig
    from dstforge.sparsity import TopologyMask
    from conftest import make_blob_set

    out, _ = cli_run
    always_0 = build_model(parse_model_spec("mlp:144-64-10"), np.random.default_rng(0))
    for layer in always_0.layers:
        layer.weight.data[...] = 0.0
    always_0.layers[-1].bias.data[0] = 1.0
    baseline = str(tmp_path / "always0.ckpt")
    save_checkpoint(baseline, always_0, TopologyMask({}), 1, np.random.default_rng(0),
                    DstConfig(method="dense", total_steps=1), 0, "0" * 64,
                    BudgetTrajectory(), 0.0, 0)
    imgs, _ = make_blob_set(20, seed=0)
    sets = str(tmp_path / "blobs-contrast-s1.bin")
    save_image_set(ImageSet(imgs[:, None], np.full(20, 3, dtype=np.int64), "c"), sets)
    code, stdout, err = run_cli(capsys, "evaluate", os.path.join(out, "final.ckpt"),
                                "--sets", sets, "--baseline", baseline)
    assert code == 3
    assert stdout == ""
    assert err.startswith("data error: --baseline") and "kind contrast" in err


def test_evaluate_directory_scores_only_corrupted_set_files(cli_run, idx_dir, tmp_path,
                                                            capsys):
    """`corrupt` writes beside its input by default, so a directory holds the
    clean set and other batches too: only `<base>-<kind>-s<severity>.bin`
    files of a known kind and severity enter the report."""
    from dstforge.data import load_idx

    out, _ = cli_run
    corr = tmp_path / "sets"
    assert run_cli(capsys, "corrupt", f"{idx_dir}/t10k-images-idx3-ubyte", "--kinds",
                   "contrast", "--severities", "2", "--out", str(corr))[0] == 0
    clean = load_idx(f"{idx_dir}/t10k-images-idx3-ubyte", f"{idx_dir}/t10k-labels-idx1-ubyte")
    for name in ("t10k.bin", "train.bin", "t10k-sepia-s1.bin", "t10k-contrast-s9.bin",
                 "t10k-contrast-s1.bin.tmp"):
        save_image_set(clean, corr / name)
    ckpt = os.path.join(out, "final.ckpt")
    code, stdout, _ = run_cli(capsys, "evaluate", ckpt, "--sets", str(corr))
    assert code == 0
    doc = json.loads(stdout)
    assert [(c["kind"], c["severity"]) for c in doc["cells"]] == [("contrast", 2)]
    assert doc["mean_robustness_accuracy"] == doc["cells"][0]["accuracy"]
    # a file named on the command line is scored whatever its name
    code, stdout, _ = run_cli(capsys, "evaluate", ckpt, "--sets", f"{corr},{corr / 't10k.bin'}")
    assert code == 0
    assert {(c["kind"], c["severity"]) for c in json.loads(stdout)["cells"]} == {
        ("contrast", 2), ("t10k", 0)}


def test_evaluate_missing_set_exits_3(cli_run, tmp_path, capsys):
    out, _ = cli_run
    code, _, err = run_cli(capsys, "evaluate", os.path.join(out, "final.ckpt"),
                           "--sets", str(tmp_path / "none.bin"))
    assert code == 3


def test_evaluate_two_files_for_one_cell_exits_3(cli_run, idx_dir, tmp_path, capsys):
    out, _ = cli_run
    corr = str(tmp_path / "sets")
    for base in ("t10k-images-idx3-ubyte", "train-images-idx3-ubyte"):
        assert run_cli(capsys, "corrupt", f"{idx_dir}/{base}", "--kinds", "contrast",
                       "--severities", "5", "--out", corr)[0] == 0
    paths = sorted(os.path.join(corr, f) for f in os.listdir(corr))
    assert len(paths) == 2
    code, stdout, err = run_cli(capsys, "evaluate", os.path.join(out, "final.ckpt"),
                                "--sets", corr)
    assert code == 3
    assert stdout == ""
    assert "contrast-s5" in err and all(p in err for p in paths)


def test_evaluate_bad_checkpoint_exits_3(idx_dir, tmp_path, capsys):
    bogus = str(tmp_path / "bogus.ckpt")
    with open(bogus, "wb") as fh:
        fh.write(b"not a checkpoint")
    sets = str(tmp_path / "c.bin")
    from conftest import make_blob_set
    from dstforge.data import ImageSet

    imgs, labels = make_blob_set(5, seed=0)
    save_image_set(ImageSet(images=imgs[:, None], labels=labels.astype(np.int64),
                            name="c"), sets)
    code, _, err = run_cli(capsys, "evaluate", bogus, "--sets", sets)
    assert code == 3
    assert "data error" in err


def test_attenuate_outputs_curve(cli_run, idx_dir, tmp_path, capsys):
    out, _ = cli_run
    svg = str(tmp_path / "ra.svg")
    jsn = str(tmp_path / "ra.json")
    code, stdout, _ = run_cli(
        capsys, "attenuate", os.path.join(out, "final.ckpt"),
        "--mode", "high", "--radii", "0,2,4",
        "--images", f"{idx_dir}/t10k-images-idx3-ubyte", "--svg", svg, "--json", jsn)
    assert code == 0
    doc = json.loads(stdout)
    assert doc["mode"] == "high"
    assert doc["model"] == "final"
    assert [p["radius"] for p in doc["points"]] == [0, 2, 4]
    assert os.path.exists(svg)
    assert json.load(open(jsn)) == doc


def test_attenuate_empty_set_exits_3(cli_run, idx_dir, tmp_path, capsys):
    out, _ = cli_run
    empty = write_empty_idx_test_set(idx_dir, tmp_path)
    code, stdout, err = run_cli(capsys, "attenuate", os.path.join(out, "final.ckpt"),
                                "--mode", "low", "--radii", "0,2", "--images", empty)
    assert code == 3
    assert stdout == "" and err == "data error: empty image set\n"


def test_attenuate_bad_radii_exits_2(cli_run, idx_dir, capsys):
    out, _ = cli_run
    code, _, err = run_cli(
        capsys, "attenuate", os.path.join(out, "final.ckpt"),
        "--mode", "low", "--radii", "2,four",
        "--images", f"{idx_dir}/t10k-images-idx3-ubyte")
    assert code == 2


def test_attenuate_names_an_out_of_range_cifar_label(cli_run, tmp_path, capsys):
    batch = np.zeros((3, 3073), dtype=np.uint8)
    batch[:, 0] = (4, 12, 1)
    path = tmp_path / "batch.bin"
    path.write_bytes(batch.tobytes())
    out, _ = cli_run
    code, stdout, err = run_cli(capsys, "attenuate", os.path.join(out, "final.ckpt"),
                                "--mode", "low", "--radii", "0,2", "--images", str(path))
    assert code == 3
    assert stdout == ""
    assert "label 12 outside [0, 10) at record 1" in err


def constant_checkpoint(path: str, spec: str, answer: int) -> str:
    """A checkpoint of `spec` whose every prediction is class `answer`."""
    model = build_model(parse_model_spec(spec), np.random.default_rng(0))
    for layer in model.layers:
        layer.weight.data[...] = 0.0
    model.layers[-1].bias.data[answer] = 1.0
    save_checkpoint(path, model, TopologyMask({}), 1, np.random.default_rng(0),
                    DstConfig(method="dense", total_steps=1), 0, "0" * 64,
                    BudgetTrajectory(), 0.0, 0)
    return path


def test_a_20_class_set_is_corrupted_and_scored_against_the_models_classes(tmp_path, capsys):
    """Labels are checked against the scoring model's class count, not a
    fixed 10: a 20-class set corrupts with its labels unchanged, evaluates
    and attenuates under a 20-class model, and a 10-class model refuses the
    set by its first label outside [0, 10), 15 at record 10."""
    labels = np.tile(np.r_[0:10, 15, 18, 10:15, 16, 17, 19], 2).astype(np.uint8)
    imgs = np.random.default_rng(3).random((labels.size, 28, 28)).astype(np.float32)
    write_idx_pair(str(tmp_path), "t10k", imgs, labels)
    images = str(tmp_path / "t10k-images-idx3-ubyte")
    corr = str(tmp_path / "corr")
    code, stdout, _ = run_cli(capsys, "corrupt", images, "--kinds", "contrast",
                              "--severities", "1", "--out", corr)
    assert code == 0
    np.testing.assert_array_equal(load_image_set(stdout.strip()).labels, labels)

    ckpt20 = constant_checkpoint(str(tmp_path / "c20.ckpt"), "mlp:784-16-20", 18)
    code, stdout, _ = run_cli(capsys, "evaluate", ckpt20, "--sets", corr)
    assert code == 0
    assert json.loads(stdout)["mean_robustness_accuracy"] == 2 / labels.size
    code, stdout, _ = run_cli(capsys, "attenuate", ckpt20, "--mode", "low",
                              "--radii", "0,2", "--images", images)
    assert code == 0
    assert [p["accuracy"] for p in json.loads(stdout)["points"]] == [2 / labels.size] * 2

    ckpt10 = constant_checkpoint(str(tmp_path / "c10.ckpt"), "mlp:784-16-10", 3)
    for argv in (["evaluate", ckpt10, "--sets", corr],
                 ["attenuate", ckpt10, "--mode", "low", "--radii", "0,2", "--images", images]):
        code, stdout, err = run_cli(capsys, *argv)
        assert code == 3
        assert stdout == "" and "label 15 outside [0, 10) at record 10" in err


def test_attenuate_with_a_checkpoint_that_does_not_fit_the_images_exits_3(tmp_path, capsys):
    imgs, labels = make_blob_set(6, seed=5, side=28)
    write_idx_pair(str(tmp_path), "t10k", imgs, labels)
    ckpt = constant_checkpoint(str(tmp_path / "c.ckpt"), "mlp:144-16-10", 0)
    code, stdout, err = run_cli(capsys, "attenuate", ckpt, "--mode", "low", "--radii", "0,2",
                                "--images", str(tmp_path / "t10k-images-idx3-ubyte"))
    assert code == 3
    assert stdout == ""
    assert err == ("data error: images of shape (1, 28, 28) do not match model mlp:144-16-10: "
                   "linear_forward: x has 784 features, w expects 144\n")


@pytest.mark.parametrize("radii", ["4,2", "2,99", "-1", ""])
def test_attenuate_rejects_radii_before_scoring(cli_run, idx_dir, capsys, monkeypatch, radii):
    def no_scoring(*args, **kwargs):
        raise AssertionError("a model was scored")

    monkeypatch.setattr(dstforge.spectral, "batched_accuracy", no_scoring)
    out, _ = cli_run
    code, stdout, err = run_cli(
        capsys, "attenuate", os.path.join(out, "final.ckpt"),
        "--mode", "low", "--radii", radii,
        "--images", f"{idx_dir}/t10k-images-idx3-ubyte")
    assert code == 2
    assert stdout == ""
    assert err.startswith("config error: --radii")


@pytest.mark.parametrize("flag, raw", [
    ("--radii", "2,,4"), ("--radii", "2,x"), ("--radii", "0,2,"),
    ("--severities", "1,,2"), ("--severities", "1,x"), ("--severities", ",3"),
])
def test_integer_lists_refuse_empty_and_non_integer_tokens_by_flag(
        cli_run, idx_dir, tmp_path, capsys, flag, raw):
    images = f"{idx_dir}/t10k-images-idx3-ubyte"
    written = str(tmp_path / "out")
    if flag == "--radii":
        argv = ["attenuate", os.path.join(cli_run[0], "final.ckpt"), "--mode", "low",
                "--images", images, "--json", written]
    else:
        argv = ["corrupt", images, "--out", written]
    code, stdout, err = run_cli(capsys, *argv, flag, raw)
    assert code == 2
    assert stdout == ""
    assert err == f"config error: {flag} must be comma-separated integers, got {raw!r}\n"
    assert not os.path.exists(written)


def test_inspect_totals_match_density(cli_run, capsys):
    out, _ = cli_run
    code, stdout, _ = run_cli(capsys, "inspect", os.path.join(out, "final.ckpt"))
    assert code == 0
    assert "model    mlp:144-64-10" in stdout
    assert "method   set" in stdout
    rows = [l.split() for l in stdout.splitlines()
            if l.startswith(("fc1", "fc2"))]
    total_active = sum(int(r[2]) for r in rows)
    total = sum(int(r[3]) for r in rows)
    density_line = next(l for l in stdout.splitlines() if l.startswith("density"))
    assert float(density_line.split()[1]) == pytest.approx(total_active / total, abs=1e-6)


def test_inspect_layer_heatmap_json(cli_run, tmp_path, capsys):
    out, _ = cli_run
    jsn = str(tmp_path / "hm.json")
    code, stdout, _ = run_cli(capsys, "inspect", os.path.join(out, "final.ckpt"),
                              "--layer", "fc1", "--json", jsn)
    assert code == 0
    doc = json.load(open(jsn))
    assert doc["layer"] == "fc1"
    mat = np.array(doc["matrix"])
    assert mat.shape == (64, 144)
    assert doc["total"] == int(mat.sum())


def test_inspect_counts_active_weights_per_channel_pair(tmp_path, capsys):
    """One count per (output, input) pair for conv and linear layers alike:
    a conv kernel's active positions, a linear weight's mask bit."""
    model = build_model(parse_model_spec("small_convnet:3x32x32-10"), np.random.default_rng(0))
    conv1 = np.zeros((32, 3, 3, 3), dtype=bool)
    conv1[0, 0, 0, 0] = conv1[0, 0, 2, 2] = conv1[5, 1, 1, 1] = conv1[31, 2, 0, 2] = True
    fc2 = np.random.default_rng(1).random((10, 128)) < 0.3
    ckpt = str(tmp_path / "hand.ckpt")
    save_checkpoint(ckpt, model, TopologyMask({"conv1": conv1, "fc2": fc2}), 1,
                    np.random.default_rng(0), DstConfig(method="dense", total_steps=1), 0,
                    "0" * 64, BudgetTrajectory(), 0.0, 0)

    def heatmap(layer):
        jsn = tmp_path / f"{layer}.json"
        code, stdout, _ = run_cli(capsys, "inspect", ckpt, "--layer", layer, "--json", str(jsn))
        assert code == 0
        return stdout.split("\n\n", 1)[1], json.loads(jsn.read_text())

    stdout, doc = heatmap("conv1")
    expected = np.zeros((32, 3), dtype=int)
    expected[0, 0], expected[5, 1], expected[31, 2] = 2, 1, 1
    assert doc["kind"] == "count" and doc["total"] == 4
    np.testing.assert_array_equal(doc["matrix"], expected)
    assert stdout == ("layer conv1: kernel nonzero counts, total 4\n"
                      "  count 0: 93 kernels\n  count 1: 2 kernels\n  count 2: 1 kernels\n")
    _, doc = heatmap("fc2")
    np.testing.assert_array_equal(doc["matrix"], fc2)
    assert doc["total"] == int(fc2.sum())


def test_inspect_unknown_layer_exits_2_and_lists_the_layers(cli_run, capsys):
    out, _ = cli_run
    code, stdout, err = run_cli(capsys, "inspect", os.path.join(out, "final.ckpt"),
                                "--layer", "bogus")
    assert code == 2
    assert stdout == ""
    assert "'bogus'" in err and "fc1, fc2" in err


@pytest.mark.parametrize("flag", ["--json", "--svg"])
def test_inspect_output_without_layer_exits_2(cli_run, tmp_path, capsys, flag):
    out, _ = cli_run
    path = str(tmp_path / "hm")
    code, stdout, err = run_cli(capsys, "inspect", os.path.join(out, "final.ckpt"), flag, path)
    assert code == 2
    assert stdout == ""
    assert "--layer" in err
    assert not os.path.exists(path)


@pytest.mark.parametrize("command, written", [
    ("evaluate", "--csv"), ("evaluate", "--json"),
    ("attenuate", "--svg"), ("attenuate", "--json"),
    ("inspect", "--svg"), ("inspect", "--json"),
])
def test_failed_output_write_leaves_no_file(cli_run, idx_dir, tmp_path, capsys, monkeypatch,
                                            command, written):
    out, _ = cli_run
    ckpt = os.path.join(out, "final.ckpt")
    args = {
        "evaluate": ["--sets", str(tmp_path / "sets")],
        "attenuate": ["--mode", "low", "--radii", "0,2",
                      "--images", f"{idx_dir}/t10k-images-idx3-ubyte"],
        "inspect": ["--layer", "fc1"],
    }[command]
    if command == "evaluate":
        assert run_cli(capsys, "corrupt", f"{idx_dir}/t10k-images-idx3-ubyte",
                       "--kinds", "brightness", "--severities", "1",
                       "--out", str(tmp_path / "sets"))[0] == 0
    path = str(tmp_path / "artifact")
    fail_atomic_writes(monkeypatch, "artifact.tmp")
    with pytest.raises(OSError, match="No space left"):
        main([command, ckpt, *args, written, path])
    assert not os.path.exists(path)
    assert not os.path.exists(path + ".tmp")


def _one_line_naming(err: str, path) -> str:
    lines = err.strip().splitlines()
    assert len(lines) == 1 and str(path) in lines[0], err
    return lines[0]


@pytest.mark.parametrize("where", ["missing directory", "directory"])
@pytest.mark.parametrize("command, written", [
    ("evaluate", "--csv"), ("evaluate", "--json"),
    ("attenuate", "--svg"), ("attenuate", "--json"),
    ("inspect", "--svg"), ("inspect", "--json"),
])
def test_an_output_that_cannot_be_written_exits_3_before_any_work(
        cli_run, idx_dir, tmp_path, capsys, monkeypatch, command, written, where):
    out, _ = cli_run

    def no_work(*args, **kwargs):
        raise AssertionError("work began before the output path was checked")

    for name in ("load_checkpoint", "load_image_set", "run_eval", "robustness_accuracy"):
        monkeypatch.setattr(f"dstforge.cli.{name}", no_work)
    args = {
        "evaluate": ["--sets", idx_dir],
        "attenuate": ["--mode", "low", "--radii", "0,2",
                      "--images", f"{idx_dir}/t10k-images-idx3-ubyte"],
        "inspect": ["--layer", "fc1"],
    }[command]
    path = tmp_path / "none" / "artifact" if where == "missing directory" else tmp_path
    code, stdout, err = run_cli(capsys, command, os.path.join(out, "final.ckpt"), *args,
                                written, str(path))
    assert code == 3 and stdout == ""
    assert _one_line_naming(err, path).startswith("data error: cannot write")


@pytest.mark.parametrize("command", ["corrupt", "attenuate", "evaluate", "evaluate --sets",
                                     "inspect"])
def test_a_directory_given_as_an_input_file_exits_3_in_one_line(cli_run, idx_dir, tmp_path,
                                                               capsys, command):
    out, _ = cli_run
    ckpt = os.path.join(out, "final.ckpt")
    sets = tmp_path / "sets"
    if command == "evaluate":
        assert run_cli(capsys, "corrupt", f"{idx_dir}/t10k-images-idx3-ubyte", "--kinds",
                       "brightness", "--severities", "1", "--out", str(sets))[0] == 0
    argv = {
        "corrupt": ["corrupt", str(tmp_path), "--out", str(tmp_path / "corr")],
        "attenuate": ["attenuate", ckpt, "--mode", "low", "--radii", "0",
                      "--images", str(tmp_path)],
        "evaluate": ["evaluate", str(tmp_path), "--sets", str(sets)],
        # a directory holding no corrupted set
        "evaluate --sets": ["evaluate", ckpt, "--sets", str(tmp_path)],
        "inspect": ["inspect", str(tmp_path)],
    }[command]
    code, stdout, err = run_cli(capsys, *argv)
    assert code == 3 and stdout == ""
    _one_line_naming(err, tmp_path)


def test_a_directory_given_as_a_data_file_of_train_exits_2_in_one_line(idx_dir, tmp_path,
                                                                       capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(toy_config(idx_dir, str(tmp_path / "run")).replace(
        f"test = {idx_dir}/t10k-images-idx3-ubyte", f"test = {tmp_path}"))
    code, _, err = run_cli(capsys, "train", str(cfg))
    assert code == 2
    _one_line_naming(err, tmp_path)
    assert not (tmp_path / "run").exists()


def test_corrupt_out_naming_a_file_exits_3_in_one_line(idx_dir, tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    code, stdout, err = run_cli(capsys, "corrupt", f"{idx_dir}/t10k-images-idx3-ubyte",
                                "--kinds", "brightness", "--severities", "1",
                                "--out", str(taken))
    assert code == 3 and stdout == ""
    _one_line_naming(err, taken)
    assert taken.read_text() == ""


def test_inspect_not_a_checkpoint_exits_3(tmp_path, capsys):
    p = str(tmp_path / "x.ckpt")
    with open(p, "wb") as fh:
        fh.write(b"garbage")
    code, _, err = run_cli(capsys, "inspect", p)
    assert code == 3


def test_inspect_truncated_mask_bitset_exits_3(cli_run, tmp_path, capsys):
    out, _ = cli_run
    with open(os.path.join(out, "final.ckpt"), "rb") as fh:
        data = fh.read()
    p = str(tmp_path / "cut.ckpt")
    with open(p, "wb") as fh:
        fh.write(data[:-1])  # the file ends with fc2's 80-byte bitset
    code, stdout, err = run_cli(capsys, "inspect", p)
    assert code == 3
    assert stdout == ""
    assert err.startswith("data error: ") and "truncated" in err


def test_flops_dense_vgg(capsys):
    code, stdout, _ = run_cli(capsys, "flops", "vgg16-cifar",
                              "--epochs", "160", "--bs", "100")
    assert code == 0
    doc = json.loads(stdout)
    assert doc["inference_flops"] == 626_927_616.0
    assert doc["param_count"] == 14_990_922
    assert doc["training_flops"] == pytest.approx(1.5046262784e16, rel=1e-9)
    assert doc["probe_events"] == 0


def test_flops_set_sparse(capsys):
    code, stdout, _ = run_cli(capsys, "flops", "vgg16-cifar", "--method", "set",
                              "--density", "0.5", "--epochs", "160", "--bs", "100")
    assert code == 0
    doc = json.loads(stdout)
    assert doc["inference_flops"] == pytest.approx(313_183_607.5, rel=1e-6)
    assert doc["training_flops"] == pytest.approx(7.516406580779795e15, rel=1e-6)


def test_flops_rigl_probe_toggle(capsys):
    base = ["flops", "vgg16-cifar", "--method", "rigl", "--sparsity", "0.5",
            "--epochs", "10", "--bs", "100"]
    _, with_probe, _ = run_cli(capsys, *base)
    _, without, _ = run_cli(capsys, *(base + ["--no-probe"]))
    a, b = json.loads(with_probe), json.loads(without)
    assert a["probe_events"] > 0
    assert b["probe_events"] == 0
    assert a["training_flops"] > b["training_flops"]


def test_flops_mest_r_charges_probes(capsys):
    # mest_r regrows at random but scores removal by |w| + lambda*|grad|, so
    # every event still needs the dense gradient
    code, stdout, _ = run_cli(capsys, "flops", "mlp:784-300-100-10", "--method", "mest_r",
                              "--sparsity", "0.5", "--epochs", "1", "--bs", "100",
                              "--delta-t", "50")
    assert code == 0
    assert json.loads(stdout)["probe_events"] > 0


def test_flops_argument_validation(capsys):
    code, _, err = run_cli(capsys, "flops", "vgg16-cifar", "--method", "set",
                           "--density", "0.5", "--sparsity", "0.5",
                           "--epochs", "1", "--bs", "100")
    assert code == 2
    code, _, err = run_cli(capsys, "flops", "vgg16-cifar", "--density", "0.5",
                           "--epochs", "1", "--bs", "100")
    assert code == 2
    code, _, err = run_cli(capsys, "flops", "vgg16-cifar", "--method", "set",
                           "--epochs", "1", "--bs", "100")
    assert code == 2
    code, _, err = run_cli(capsys, "flops", "resnet99-cifar",
                           "--epochs", "1", "--bs", "100")
    assert code == 2
    assert "unknown arch" in err


@pytest.mark.parametrize("sizes", [("--bs", "0"), ("--bs", "100", "--images-per-epoch", "0")])
def test_flops_rejects_a_zero_size(capsys, sizes):
    code, stdout, err = run_cli(capsys, "flops", "vgg16-cifar", "--epochs", "1", *sizes)
    assert code == 2
    assert stdout == ""
    assert err.startswith("config error: --bs and --images-per-epoch must be >= 1")


def test_flops_reports_a_bad_model_spec_by_its_own_reason(capsys):
    code, stdout, err = run_cli(capsys, "flops", "small_convnet:3x30x32-10",
                                "--epochs", "1", "--bs", "100")
    assert code == 2
    assert stdout == ""
    assert "divisible by 4" in err and "unknown arch" not in err


@pytest.mark.parametrize("spec", ["mlp:784-x-10", "mlp:784--10"])
def test_flops_names_an_mlp_spec_with_a_width_that_is_no_integer(capsys, spec):
    code, stdout, err = run_cli(capsys, "flops", spec, "--epochs", "1", "--bs", "100")
    assert code == 2
    assert stdout == ""
    assert f"bad mlp spec {spec!r}, expected mlp:IN-...-CLASSES" in err


@pytest.mark.parametrize("sizes", [("--epochs", "0", "--bs", "100"),
                                   ("--epochs", "1", "--bs", "100", "--images-per-epoch", "50")])
def test_flops_names_the_flags_that_leave_no_training_step(capsys, sizes):
    code, stdout, err = run_cli(capsys, "flops", "vgg16-cifar", *sizes)
    assert code == 2
    assert stdout == ""
    assert all(flag in err for flag in ("--epochs", "--images-per-epoch", "--bs"))
    assert "total_steps" not in err


def test_flops_names_a_density_out_of_range(capsys):
    code, stdout, err = run_cli(capsys, "flops", "vgg16-cifar", "--method", "set",
                                "--density", "1.5", "--epochs", "1", "--bs", "100")
    assert code == 2
    assert stdout == ""
    assert "--density" in err and "1.5" in err


@pytest.mark.parametrize("flags, message", [
    (("--method", "set", "--density", "1.0"), "--density must be in (0, 1) for set, got 1.0"),
    (("--method", "set"), "--method set needs --sparsity or --density"),
    (("--method", "set", "--sparsity", "1.5"), "--sparsity must be in (0, 1) for set, got 1.5"),
    (("--method", "dense", "--sparsity", "0.5"), "--sparsity must be 0 for dense, got 0.5"),
    (("--method", "dense", "--density", "0.5"), "--density must be 1 for dense, got 0.5"),
    (("--delta-t", "0"), "--delta-t must be >= 1"),
    (("--method", "granet_g", "--sparsity", "0.1"),
     "--sparsity 0.1 sets a target density above granet_g's initial density 0.8"),
])
def test_flops_names_the_flag_it_refuses(capsys, flags, message):
    # a DstConfig refusal names the flag that set the value, not its field
    code, stdout, err = run_cli(capsys, "flops", "mlp:784-300-100-10",
                                "--epochs", "1", "--bs", "100", *flags)
    assert code == 2
    assert stdout == ""
    assert err.startswith(f"config error: {message}")


def test_flops_accepts_model_spec_strings(capsys):
    code, stdout, _ = run_cli(capsys, "flops", "mlp:784-300-100-10",
                              "--epochs", "1", "--bs", "100",
                              "--images-per-epoch", "60000")
    assert code == 0
    doc = json.loads(stdout)
    assert doc["param_count"] == 266_610
    # 2 FLOPs per weight MAC
    assert doc["inference_flops"] == 2 * 266_200


def test_resume_through_cli_is_bitwise(idx_dir, tmp_path, capsys):
    full_out = str(tmp_path / "full")
    split_out = str(tmp_path / "split")
    full_cfg = str(tmp_path / "full.ini")
    split_cfg = str(tmp_path / "split.ini")
    with open(full_cfg, "w") as fh:
        fh.write(toy_config(idx_dir, full_out, method="set", sparsity=0.5, epochs=1))
    with open(split_cfg, "w") as fh:
        fh.write(toy_config(idx_dir, split_out, method="set", sparsity=0.5, epochs=1))
    assert run_cli(capsys, "train", full_cfg)[0] == 0
    assert run_cli(capsys, "train", split_cfg, "--stop-after-step", "17")[0] == 0
    mid = os.path.join(split_out, "step00000017.ckpt")
    assert run_cli(capsys, "train", split_cfg, "--resume", mid)[0] == 0
    for name in ("final.ckpt", "metrics.jsonl"):
        with open(os.path.join(full_out, name), "rb") as fa, \
             open(os.path.join(split_out, name), "rb") as fb:
            assert fa.read() == fb.read(), name


@pytest.mark.parametrize("stop", ["0", "-3", "resume", "31", "1000000"])
def test_train_unreachable_stop_step_exits_2_without_a_checkpoint(idx_dir, tmp_path, capsys,
                                                                   stop):
    """A stop step at or before the step the run starts from (0 fresh, the
    checkpoint's step on resume), or past the run's last step (30), would
    never be reached."""
    out = tmp_path / "run"
    cfg_path = str(tmp_path / "run.ini")
    with open(cfg_path, "w") as fh:
        fh.write(toy_config(idx_dir, str(out), method="set", sparsity=0.5, epochs=1))
    args = ["train", cfg_path, "--stop-after-step", stop]
    if stop == "resume":
        assert run_cli(capsys, "train", cfg_path, "--stop-after-step", "17")[0] == 0
        args = ["train", cfg_path, "--resume", str(out / "step00000017.ckpt"),
                "--stop-after-step", "17"]
    written = sorted(os.listdir(out)) if out.exists() else []
    code, _, err = run_cli(capsys, *args)
    assert code == 2
    assert err.startswith("config error: stop after step")
    assert (sorted(os.listdir(out)) if out.exists() else []) == written


def test_train_stop_at_the_last_step_completes_the_run(idx_dir, tmp_path, capsys):
    """N equal to the run's total steps (30) is the whole run: final.ckpt with
    the bytes of a run given no stop step, and no step checkpoint."""
    finals = []
    for name, stop in (("stopped", ["--stop-after-step", "30"]), ("whole", [])):
        out = tmp_path / name
        cfg_path = str(tmp_path / f"{name}.ini")
        with open(cfg_path, "w") as fh:
            fh.write(toy_config(idx_dir, str(out), method="set", sparsity=0.5, epochs=1))
        assert run_cli(capsys, "train", cfg_path, *stop)[0] == 0
        assert not [f for f in os.listdir(out) if f.startswith("step")]
        finals.append((out / "final.ckpt").read_bytes())
    assert finals[0] == finals[1]
