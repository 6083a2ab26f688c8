#!/usr/bin/env python
"""Digests of every artifact of a fixed grid of training runs.

    python scripts/parity.py SRC_DIR OUT_DIR

Imports dstforge from SRC_DIR (the `src` directory of a checkout) and trains
all seven methods on the synthetic blob task of perfbench/blobs.py:
`mlp:784-300-100-10` at sparsity 0.5 and 0.9 and `small_convnet:3x32x32-10`
at 0.5 (dense once per model), all with ERK allocation, plus one mest_g run
of the MLP at sparsity 0.1 with uniform allocation and fc1 kept dense, writing
data and run directories under OUT_DIR. For each run it prints
`<run> <artifact> <sha256>` for final.ckpt, metrics.jsonl, trajectory.csv and
cost.json, `<run> final.ckpt-body <sha256>` for the checkpoint bytes after
its JSON header (weights, momenta and masks, so a change to the header alone
leaves it equal), and for the dense and sparse `Model.predict` logits of the
final checkpoint on a fixed batch. It then
prints `flops-<arch>-<dist>-<method> stdout <sha256>` for the `dstforge flops`
report of every method on `mlp:784-300-100-10`, `small_convnet:3x32x32-10`
and the four library archs
(sparsity 0.5, ERK and uniform, 2 epochs, batch 100, delta_t 50, so every
schedule has events), which covers the closed-form trajectory, the probe
accounting and the bn and depthwise rows. Last it runs the
robustness study (`study.run_study`: dense, set_s50 and rigl_s50, seeds 1 and
2, 2 epochs, on a 1x28x28 blob IDX set) twice, first from an empty root and
then on its cached runs and corrupted grid, and prints
`study-<fresh|cached> <artifact> <sha256>` for study.json, ra_curves.svg and
the corrupted grid (one digest over the sorted file names and contents).
Then it renders all 50 (kind, severity) cells of a 3x32x32 blob set with
`corrupt_images` and prints `grid-3x32x32 <kind>-s<severity> <sha256>` of
each cell's float32 bytes, and runs `dstforge corrupt` on the same set
written as CIFAR records, printing `corrupt-3x32x32 files <sha256>` over the
files it writes and `corrupt-3x32x32 stdout <sha256>` of what it prints. The
same two lines follow as `corrupt-1x28x28` for `dstforge corrupt` on the MLP
grid's raw `t10k-images-idx3-ubyte` file, whose labels the command finds by
name. `attenuate-1x28x28 stdout <sha256>` digests what `dstforge
attenuate` prints for mlp-dense-s0 on that file, low then high mode, and
`attenuate-3x32x32 stdout <sha256>` the same for small_convnet-dense-s0 on
the convnet grid's test set, so the three-channel path is covered too.
`evaluate-<shape> stdout <sha256>` digests what `dstforge evaluate` prints
for the dense run over each `dstforge corrupt` directory: the convnet's with
`--baseline` set to its set_s50 run over `corrupt-3x32x32`, the MLP's alone
over `corrupt-1x28x28`. Last,
`inspect-<run> stdout <sha256>` digests what `dstforge inspect --layer`
prints for the dense and the set_s50 run of each model (layer fc1 of the MLP,
conv2 of the convnet), which covers the dense run's empty topology and a
masked one, and `inspect-<run> json|svg <sha256>` the heatmap files that the
same call writes with `--json` and `--svg`. Last, one rigl run of the MLP at
sparsity 0.5 with the config's default cosine schedule and no weight decay
prints the seven lines of a grid run as `mlp-rigl-s50-cosine-wd0`, so the
cosine branch of `optim.lr_at` and the no-decay branch of
`optim.sgd_momentum_step` run too. Run it on two checkouts and diff the
outputs: a change that keeps every byte prints the same lines.
BLAS runs on one thread, since float sums (and so the MLP artifacts) change
with the thread count.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import shutil
import struct
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
METHODS = ("dense", "set", "rigl", "mest_r", "mest_g", "granet_r", "granet_g")
ARTIFACTS = ("final.ckpt", "metrics.jsonl", "trajectory.csv", "cost.json")
SEED = 21
# model, input shape, sparsities, (epochs, bs, lr, delta_t), (n_train, n_test)
GRID = (
    ("mlp:784-300-100-10", (1, 28, 28), (0.5, 0.9), (2, 50, 0.1, 4), (600, 200)),
    ("small_convnet:3x32x32-10", (3, 32, 32), (0.5,), (2, 20, 0.05, 4), (200, 100)),
)
# method, sparsity, extra [dst] lines of the uniform-allocation MLP run
UNIFORM_RUN = ("mest_g", 0.1, "sparsity_dist = uniform\ndense_overrides = fc1\n")
# name, method, sparsity and [train] line replacements of the last MLP run
DEFAULTS_RUN = ("mlp-rigl-s50-cosine-wd0", "rigl", 0.5,
                (("lrs = step\n", "lrs = cosine\n"), ("wd = 1e-4\n", "wd = 0\n")))
FLOPS_ARCHS = ("mlp:784-300-100-10", "small_convnet:3x32x32-10", "vgg16-cifar", "resnet34-cifar",
               "efficientnetb0-tiny", "resnet50-imagenet")
FLOPS_ARGS = ("--epochs", "2", "--bs", "100", "--delta-t", "50")
# label, method, sparsity
STUDY_METHODS = (("dense", "dense", 0.0), ("set_s50", "set", 0.5), ("rigl_s50", "rigl", 0.5))
STUDY_SEEDS = (1, 2)
STUDY_EPOCHS = 2
STUDY_SIZES = (600, 700)  # n_train, n_test; the test set spans two metrics.EVAL_BATCH batches
COLOR_GRID_SIZE = 200
ATTENUATE_RADII = "0,2,4,8,14"
INSPECT_LAYERS = {"mlp": "fc1", "small_convnet": "conv2"}  # model kind -> --layer
INSPECT_RUNS = ("dense-s0", "set-s50")


def _sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _sha256_ckpt_body(path: str) -> str:
    """SHA-256 of a checkpoint after its header: magic, a <HQI of version,
    step and header length, then the JSON header."""
    with open(path, "rb") as fh:
        buf = fh.read()
    (hlen,) = struct.unpack_from("<I", buf, 14)
    return hashlib.sha256(buf[18 + hlen :]).hexdigest()


def _sha256_logits(logits) -> str:
    head = f"{logits.dtype.str} {logits.shape}".encode()
    return hashlib.sha256(head + logits.tobytes()).hexdigest()


def _sha256_dir(path: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(f"{name} {_sha256_file(os.path.join(path, name))}\n".encode())
    return h.hexdigest()


def _run_cli(cli_main, argv: list[str]) -> str | None:
    """What `dstforge <argv>` prints, or None (reported on stderr) when it fails."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        status = cli_main(argv)
    if status != 0:
        print(f"dstforge {' '.join(argv)} exited {status}", file=sys.stderr)
        return None
    return stdout.getvalue()


def _train_and_digest(name: str, text: str, run_dir: str, test_x) -> None:
    """Train the run of config `text` into `run_dir` and print its lines."""
    from dstforge.checkpoint import load_checkpoint
    from dstforge.config import parse_config
    from dstforge.train import run_train

    shutil.rmtree(run_dir, ignore_errors=True)
    run_train(parse_config(text))
    for artifact in ARTIFACTS:
        print(name, artifact, _sha256_file(os.path.join(run_dir, artifact)))
    print(name, "final.ckpt-body", _sha256_ckpt_body(os.path.join(run_dir, "final.ckpt")))
    trained = load_checkpoint(os.path.join(run_dir, "final.ckpt")).build_model()
    for sparse in (False, True):
        logits = trained.predict(test_x, sparse=sparse)
        print(name, "predict-sparse" if sparse else "predict-dense", _sha256_logits(logits))
    sys.stdout.flush()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("src_dir", help="directory holding the dstforge package to test")
    ap.add_argument("out_dir", help="where data and run directories are written")
    args = ap.parse_args()
    src_dir = os.path.abspath(args.src_dir)
    sys.path[:0] = [src_dir, os.path.join(ROOT, "perfbench")]

    import blobs
    import dstforge
    from dstforge.cli import main as cli_main
    from dstforge.corruption import KINDS, SEVERITIES, CorruptionSpec, corrupt_images
    from dstforge.study import StudyMethod, find_idx_dataset, run_study

    if not os.path.abspath(dstforge.__file__).startswith(src_dir + os.sep):
        print(f"dstforge imported from {dstforge.__file__}, not {src_dir}", file=sys.stderr)
        return 2

    out = os.path.abspath(args.out_dir)
    grid_data = {}  # model kind -> ([data] keys, test images)
    for model, shape, sparsities, (epochs, bs, lr, delta_t), (n_train, n_test) in GRID:
        kind = model.split(":")[0]
        data_dir = os.path.join(out, "data", kind)
        os.makedirs(data_dir, exist_ok=True)
        train_set = blobs.make_blob_set(n_train, (SEED, 1), shape)
        test_x, test_y = blobs.make_blob_set(n_test, (SEED, 2), shape)
        if shape[0] == 1:
            tr = blobs.write_idx_pair(data_dir, "train", *train_set)
            te = blobs.write_idx_pair(data_dir, "t10k", test_x, test_y)
            data = {"format": "idx", "train": tr[0], "train_labels": tr[1],
                    "test": te[0], "test_labels": te[1]}
        else:
            data = {"format": "cifar",
                    "train": blobs.write_cifar(os.path.join(data_dir, "train.bin"), *train_set),
                    "test": blobs.write_cifar(os.path.join(data_dir, "test.bin"), test_x, test_y)}
        grid_data[kind] = data, test_x

        runs = [(method, sparsity, "") for method in METHODS
                for sparsity in ((0.0,) if method == "dense" else sparsities)]
        if kind == "mlp":
            runs.append(UNIFORM_RUN)
        for method, sparsity, extra in runs:
            name = f"{kind}-{method}-s{round(sparsity * 100)}" + ("-uniform" if extra else "")
            run_dir = os.path.join(out, "runs", name)
            text = blobs.run_config(data, model, run_dir, SEED, epochs, bs, lr,
                                    method, sparsity, delta_t)
            if extra:
                text = text.replace("sparsity_dist = erk\n", extra)
            _train_and_digest(name, text, run_dir, test_x)

    for arch in FLOPS_ARCHS:
        for dist in ("erk", "uniform"):
            for method in METHODS:
                argv = ["flops", arch, "--method", method, "--dist", dist, *FLOPS_ARGS]
                if method != "dense":
                    argv += ["--sparsity", "0.5"]
                report = _run_cli(cli_main, argv)
                if report is None:
                    return 1
                digest = hashlib.sha256(report.encode()).hexdigest()
                print(f"flops-{arch.split(':')[0]}-{dist}-{method}", "stdout", digest)

    study_data_dir = os.path.join(out, "data", "study")
    os.makedirs(study_data_dir, exist_ok=True)
    n_train, n_test = STUDY_SIZES
    blobs.write_idx_pair(study_data_dir, "train", *blobs.make_blob_set(n_train, (SEED, 3), (1, 28, 28)))
    blobs.write_idx_pair(study_data_dir, "t10k", *blobs.make_blob_set(n_test, (SEED, 4), (1, 28, 28)))
    study_root = os.path.join(out, "study")
    shutil.rmtree(study_root, ignore_errors=True)
    methods = [StudyMethod(*m) for m in STUDY_METHODS]
    for phase in ("fresh", "cached"):
        run_study(find_idx_dataset(study_data_dir), study_root, epochs=STUDY_EPOCHS,
                  seeds=STUDY_SEEDS, methods=methods)
        for artifact in ("study.json", "ra_curves.svg"):
            print(f"study-{phase}", artifact, _sha256_file(os.path.join(study_root, artifact)))
        print(f"study-{phase}", "corrupted", _sha256_dir(os.path.join(study_root, "corrupted")))
        sys.stdout.flush()

    color_x, color_y = blobs.make_blob_set(COLOR_GRID_SIZE, (SEED, 5), (3, 32, 32))
    for kind in KINDS:
        for sev in SEVERITIES:
            cell = corrupt_images(color_x, CorruptionSpec(kind, sev, SEED))
            print("grid-3x32x32", f"{kind}-s{sev}", hashlib.sha256(cell.tobytes()).hexdigest())
    color_dir = os.path.join(out, "data", "color")
    os.makedirs(color_dir, exist_ok=True)
    color_path = blobs.write_cifar(os.path.join(color_dir, "test.bin"), color_x, color_y)
    mlp_test = os.path.join(out, "data", "mlp", "t10k-images-idx3-ubyte")
    for label, path in (("corrupt-3x32x32", color_path), ("corrupt-1x28x28", mlp_test)):
        corr_dir = os.path.join(out, label)
        shutil.rmtree(corr_dir, ignore_errors=True)
        listing = _run_cli(cli_main, ["corrupt", path, "--seed", str(SEED), "--out", corr_dir])
        if listing is None:
            return 1
        print(label, "files", _sha256_dir(corr_dir))
        stdout = listing.replace(out + os.sep, "")
        print(label, "stdout", hashlib.sha256(stdout.encode()).hexdigest())
    for label, kind, images in (("1x28x28", "mlp", mlp_test),
                                ("3x32x32", "small_convnet",
                                 os.path.join(out, "data", "small_convnet", "test.bin"))):
        dense = os.path.join(out, "runs", f"{kind}-dense-s0", "final.ckpt")
        curves = [_run_cli(cli_main, ["attenuate", dense, "--mode", mode, "--radii",
                                      ATTENUATE_RADII, "--images", images])
                  for mode in ("low", "high")]
        if None in curves:
            return 1
        print(f"attenuate-{label}", "stdout", hashlib.sha256("".join(curves).encode()).hexdigest())
    for label, kind, baseline in (("3x32x32", "small_convnet", "set-s50"),
                                  ("1x28x28", "mlp", None)):
        argv = ["evaluate", os.path.join(out, "runs", f"{kind}-dense-s0", "final.ckpt"),
                "--sets", os.path.join(out, f"corrupt-{label}")]
        if baseline:
            argv += ["--baseline", os.path.join(out, "runs", f"{kind}-{baseline}", "final.ckpt")]
        report = _run_cli(cli_main, argv)
        if report is None:
            return 1
        print(f"evaluate-{label}", "stdout", hashlib.sha256(report.encode()).hexdigest())
    for kind, layer in INSPECT_LAYERS.items():
        for run in INSPECT_RUNS:
            name = f"{kind}-{run}"
            heatmap = {ext: os.path.join(out, f"inspect-{name}.{ext}") for ext in ("json", "svg")}
            report = _run_cli(cli_main, ["inspect", os.path.join(out, "runs", name, "final.ckpt"),
                                         "--layer", layer, "--json", heatmap["json"],
                                         "--svg", heatmap["svg"]])
            if report is None:
                return 1
            print(f"inspect-{name}", "stdout", hashlib.sha256(report.encode()).hexdigest())
            for ext, path in heatmap.items():
                print(f"inspect-{name}", ext, _sha256_file(path))

    model, _, _, (epochs, bs, lr, delta_t), _ = GRID[0]
    (data, test_x), (name, method, sparsity, replacements) = grid_data["mlp"], DEFAULTS_RUN
    run_dir = os.path.join(out, "runs", name)
    text = blobs.run_config(data, model, run_dir, SEED, epochs, bs, lr, method, sparsity, delta_t)
    for old, new in replacements:
        assert old in text, old
        text = text.replace(old, new)
    _train_and_digest(name, text, run_dir, test_x)
    return 0


if __name__ == "__main__":
    sys.exit(main())
