#!/usr/bin/env python
"""Digests of every artifact of a fixed table of training runs and probes.

    python scripts/parity.py SRC_DIR OUT_DIR

Imports dstforge from SRC_DIR (the `src` directory of a checkout), writes
data and run directories under OUT_DIR and prints one `<label> <artifact>
<sha256>` line per artifact. Run it on two checkouts and diff the outputs: a
change that keeps every byte prints the same lines.

RUNS is the table of training runs, on the synthetic blob task of
perfbench/blobs.py with the models of MODELS: each row names the model
kind, method and sparsity, and may edit lines of the config, cut the
training set into two files (two CIFAR record files or two IDX pairs), set
another batch size, or stop after a step and resume from its checkpoint. A
run prints, under its name, the SHA-256 of final.ckpt, metrics.jsonl,
trajectory.csv and cost.json, of the checkpoint after its JSON header
(`final.ckpt-body`), and of the dense and sparse `Model.predict` logits of
the final checkpoint, loaded for scoring, on the fixed test batch
(`predict-dense`, `predict-sparse`); a resumed run prints its final.ckpt
line alone. Then come the probes: the stdout of `dstforge flops` for every
method on FLOPS_ARCHS, a robustness study run fresh and then cached, every
cell of `corrupt_images` on a 3x32x32 set, and the stdout and files of
`dstforge corrupt`, `attenuate`, `evaluate`, `inspect` and `study` (OUT_DIR
cut from what they print). SAME lists the pairs of lines that must be
equal; the script exits 1, naming each pair that differs, after printing
all 339 lines. BLAS runs on one thread, since float sums (and so the MLP
artifacts) change with the thread count.
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
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
METHODS = ("dense", "set", "rigl", "mest_r", "mest_g", "granet_r", "granet_g")
ARTIFACTS = ("final.ckpt", "metrics.jsonl", "trajectory.csv", "cost.json")
SEED = 21
# kind -> model spec, input shape, (epochs, bs, lr, delta_t), (n_train, n_test)
MODELS = {
    "mlp": ("mlp:784-300-100-10", (1, 28, 28), (2, 50, 0.1, 4), (600, 200)),
    "small_convnet": ("small_convnet:3x32x32-10", (3, 32, 32), (2, 20, 0.05, 4), (200, 100)),
}


class Run(NamedTuple):
    kind: str  # a key of MODELS
    method: str
    sparsity: float
    tag: str = ""  # appended to the name
    edits: tuple = ()  # (old, new) replacements of config lines
    split: bool = False  # the training set cut into two files
    bs: int | None = None  # instead of the model's batch size
    stop: int | None = None  # stop after this step, then resume from its checkpoint

    @property
    def name(self) -> str:
        return f"{self.kind}-{self.method}-s{round(self.sparsity * 100)}{self.tag}"

    @property
    def artifacts(self) -> tuple[str, ...]:
        if self.stop:
            return ("final.ckpt",)
        return (*ARTIFACTS, "final.ckpt-body", "predict-dense", "predict-sparse")


def _grid(kind: str, sparsities: tuple[float, ...]) -> tuple[Run, ...]:
    """Every method at each sparsity, all with ERK allocation; dense once."""
    return tuple(Run(kind, method, sparsity) for method in METHODS
                 for sparsity in ((0.0,) if method == "dense" else sparsities))


RUNS = (
    *_grid("mlp", (0.5, 0.9)),
    Run("mlp", "mest_g", 0.1, "-uniform",
        edits=(("sparsity_dist = erk\n", "sparsity_dist = uniform\ndense_overrides = fc1\n"),)),
    *_grid("small_convnet", (0.5,)),
    # the cosine branch of optim.lr_at and the no-decay branch of optim.sgd_momentum_step
    Run("mlp", "rigl", 0.5, "-cosine-wd0",
        edits=(("lrs = step\n", "lrs = cosine\n"), ("wd = 1e-4\n", "wd = 0\n"))),
    # step 7 is mid-epoch in both models, after the event at step 4
    Run("mlp", "rigl", 0.5, "-resume", stop=7),
    Run("small_convnet", "rigl", 0.5, "-resume", stop=7),
    Run("small_convnet", "rigl", 0.5, "-split2", split=True),
    Run("mlp", "rigl", 0.5, "-split2", split=True),
    # no multiple of tensor.CONV_CHUNK, so every step's last conv chunk is ragged
    Run("small_convnet", "rigl", 0.5, "-bs18", bs=18),
)
# Lines that must be equal: a resumed run ends as the uninterrupted one does,
# and a split training set trains as one file does (the checkpoint headers
# differ, since the run digest names the files).
SAME = (
    (("mlp-rigl-s50-resume", "final.ckpt"), ("mlp-rigl-s50", "final.ckpt")),
    (("small_convnet-rigl-s50-resume", "final.ckpt"), ("small_convnet-rigl-s50", "final.ckpt")),
    (("small_convnet-rigl-s50-split2", "final.ckpt-body"), ("small_convnet-rigl-s50", "final.ckpt-body")),
    (("mlp-rigl-s50-split2", "final.ckpt-body"), ("mlp-rigl-s50", "final.ckpt-body")),
)
FLOPS_ARCHS = ("mlp:784-300-100-10", "small_convnet:3x32x32-10", "vgg16-cifar", "resnet34-cifar",
               "efficientnetb0-tiny", "resnet50-imagenet")
# 2 epochs of batch 100 with an event every 50 steps, so every schedule has events;
# the sparse methods run at sparsity 0.5
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
SPLIT_RECORD = 3073  # bytes of one CIFAR record: the split-file run cuts between records


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


def _write_data(out: str, kind: str):
    """The [data] keys of model `kind`'s blob set, written under
    OUT_DIR/data, and its test images."""
    import blobs

    _, shape, _, (n_train, n_test) = MODELS[kind]
    data_dir = os.path.join(out, "data", kind)
    os.makedirs(data_dir, exist_ok=True)
    train_set = blobs.make_blob_set(n_train, (SEED, 1), shape)
    test_x, test_y = blobs.make_blob_set(n_test, (SEED, 2), shape)
    if shape[0] == 1:
        tr = blobs.write_idx_pair(data_dir, "train", *train_set)
        te = blobs.write_idx_pair(data_dir, "t10k", test_x, test_y)
        return {"format": "idx", "train": tr[0], "train_labels": tr[1],
                "test": te[0], "test_labels": te[1]}, test_x
    return {"format": "cifar",
            "train": blobs.write_cifar(os.path.join(data_dir, "train.bin"), *train_set),
            "test": blobs.write_cifar(os.path.join(data_dir, "test.bin"), test_x, test_y)}, test_x


def _cut_in_two(data: dict, split_dir: str) -> dict:
    """`data`'s [data] keys with its training set cut in two at half its
    images, written into `split_dir`: two CIFAR record files, or two IDX
    pairs."""
    os.makedirs(split_dir, exist_ok=True)
    with open(data["train"], "rb") as fh:
        images = fh.read()
    if data["format"] == "cifar":
        cut = len(images) // SPLIT_RECORD // 2 * SPLIT_RECORD
        parts = [os.path.join(split_dir, f"train{i}.bin") for i in range(2)]
        for path, chunk in zip(parts, (images[:cut], images[cut:])):
            with open(path, "wb") as fh:
                fh.write(chunk)
        return {**data, "train": ",".join(parts)}
    with open(data["train_labels"], "rb") as fh:
        labels = fh.read()
    n, h, w = struct.unpack_from(">III", images, 4)
    pairs = []
    for i, (lo, hi) in enumerate(((0, n // 2), (n // 2, n))):
        pair = (os.path.join(split_dir, f"train{i}-images-idx3-ubyte"),
                os.path.join(split_dir, f"train{i}-labels-idx1-ubyte"))
        with open(pair[0], "wb") as fh:
            fh.write(struct.pack(">IIII", 0x803, hi - lo, h, w)
                     + images[16 + lo * h * w : 16 + hi * h * w])
        with open(pair[1], "wb") as fh:
            fh.write(struct.pack(">II", 0x801, hi - lo) + labels[8 + lo : 8 + hi])
        pairs.append(pair)
    images_paths, labels_paths = zip(*pairs)
    return {**data, "train": ",".join(images_paths), "train_labels": ",".join(labels_paths)}


def _train(run: Run, data: dict, test_x, out: str) -> dict:
    """Train `run` into OUT_DIR/runs/<name> and print its lines; returns
    them as {(name, artifact): sha256}."""
    import blobs
    from dstforge.config import parse_config
    from dstforge.train import load_model_from_checkpoint, run_train

    model, _, (epochs, bs, lr, delta_t), _ = MODELS[run.kind]
    run_dir = os.path.join(out, "runs", run.name)
    if run.split:
        data = _cut_in_two(data, os.path.join(out, "data", f"{run.kind}-split"))
    text = blobs.run_config(data, model, run_dir, SEED, epochs, run.bs or bs, lr,
                            run.method, run.sparsity, delta_t)
    for old, new in run.edits:
        assert old in text, old
        text = text.replace(old, new)
    cfg = parse_config(text)
    shutil.rmtree(run_dir, ignore_errors=True)
    run_train(cfg, resume_path=run_train(cfg, stop_after_step=run.stop) if run.stop else None)
    ckpt = os.path.join(run_dir, "final.ckpt")
    digests = {artifact: _sha256_file(os.path.join(run_dir, artifact)) for artifact in ARTIFACTS}
    digests["final.ckpt-body"] = _sha256_ckpt_body(ckpt)
    trained, _ = load_model_from_checkpoint(ckpt)
    digests["predict-dense"] = _sha256_logits(trained.predict(test_x, sparse=False))
    digests["predict-sparse"] = _sha256_logits(trained.predict(test_x, sparse=True))
    lines = {(run.name, artifact): digests[artifact] for artifact in run.artifacts}
    for (name, artifact), digest in lines.items():
        print(name, artifact, digest)
    sys.stdout.flush()
    return lines


def _probe(out: str, label: str, *argvs: list[str]) -> None:
    """Print `<label> stdout <sha256>` of what `dstforge <argv>` prints for
    each argv in turn, OUT_DIR cut from its paths; exit 1 if one fails."""
    from dstforge.cli import main as cli_main

    stdout = io.StringIO()
    for argv in argvs:
        with contextlib.redirect_stdout(stdout):
            status = cli_main(argv)
        if status != 0:
            print(f"dstforge {' '.join(argv)} exited {status}", file=sys.stderr)
            sys.exit(1)
    text = stdout.getvalue().replace(out + os.sep, "")
    print(label, "stdout", hashlib.sha256(text.encode()).hexdigest(), flush=True)


def main() -> int:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy loads
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("src_dir", help="directory holding the dstforge package to test")
    ap.add_argument("out_dir", help="where data and run directories are written")
    args = ap.parse_args()
    src_dir = os.path.abspath(args.src_dir)
    sys.path[:0] = [src_dir, os.path.join(ROOT, "perfbench")]

    import blobs
    import dstforge
    from dstforge.corruption import KINDS, SEVERITIES, CorruptionSpec, corrupt_images
    from dstforge.study import StudyMethod, find_idx_dataset, run_study

    if not os.path.abspath(dstforge.__file__).startswith(src_dir + os.sep):
        print(f"dstforge imported from {dstforge.__file__}, not {src_dir}", file=sys.stderr)
        return 2

    out = os.path.abspath(args.out_dir)
    data = {kind: _write_data(out, kind) for kind in MODELS}
    printed = {}
    for run in RUNS:
        printed.update(_train(run, *data[run.kind], out))

    def ckpt(name: str) -> str:
        return os.path.join(out, "runs", name, "final.ckpt")

    for arch in FLOPS_ARCHS:
        for dist in ("erk", "uniform"):
            for method in METHODS:
                sparsity = () if method == "dense" else ("--sparsity", "0.5")
                _probe(out, f"flops-{arch.split(':')[0]}-{dist}-{method}",
                       ["flops", arch, "--method", method, "--dist", dist, *FLOPS_ARGS, *sparsity])

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
    study_cli = os.path.join(out, "study-cli")
    shutil.rmtree(study_cli, ignore_errors=True)
    _probe(out, "study-cli", ["study", "--data", study_data_dir, "--out", study_cli,
                              "--epochs", "1", "--seeds", "1"])
    print("study-cli", "study.json", _sha256_file(os.path.join(study_cli, "study.json")))

    color_x, color_y = blobs.make_blob_set(COLOR_GRID_SIZE, (SEED, 5), (3, 32, 32))
    for kind in KINDS:
        for sev in SEVERITIES:
            cell = corrupt_images(color_x, CorruptionSpec(kind, sev, SEED))
            print("grid-3x32x32", f"{kind}-s{sev}", hashlib.sha256(cell.tobytes()).hexdigest())
    color_dir = os.path.join(out, "data", "color")
    os.makedirs(color_dir, exist_ok=True)
    color_path = blobs.write_cifar(os.path.join(color_dir, "test.bin"), color_x, color_y)
    for label, path in (("corrupt-3x32x32", color_path), ("corrupt-1x28x28", data["mlp"][0]["test"])):
        corr_dir = os.path.join(out, label)
        shutil.rmtree(corr_dir, ignore_errors=True)
        _probe(out, label, ["corrupt", path, "--seed", str(SEED), "--out", corr_dir])
        print(label, "files", _sha256_dir(corr_dir))
    for shape, kind in (("1x28x28", "mlp"), ("3x32x32", "small_convnet")):
        _probe(out, f"attenuate-{shape}",
               *(["attenuate", ckpt(f"{kind}-dense-s0"), "--mode", mode, "--radii", ATTENUATE_RADII,
                  "--images", data[kind][0]["test"]] for mode in ("low", "high")))
    _probe(out, "evaluate-3x32x32", ["evaluate", ckpt("small_convnet-dense-s0"),
                                     "--sets", os.path.join(out, "corrupt-3x32x32"),
                                     "--baseline", ckpt("small_convnet-set-s50")])
    _probe(out, "evaluate-1x28x28", ["evaluate", ckpt("mlp-dense-s0"),
                                     "--sets", os.path.join(out, "corrupt-1x28x28")])
    for kind, layer in INSPECT_LAYERS.items():
        for run in INSPECT_RUNS:
            name = f"{kind}-{run}"
            heatmap = {ext: os.path.join(out, f"inspect-{name}.{ext}") for ext in ("json", "svg")}
            _probe(out, f"inspect-{name}", ["inspect", ckpt(name), "--layer", layer,
                                            "--json", heatmap["json"], "--svg", heatmap["svg"]])
            for ext, path in heatmap.items():
                print(f"inspect-{name}", ext, _sha256_file(path))

    sys.stdout.flush()
    failed = [(a, b) for a, b in SAME if printed[a] != printed[b]]
    for a, b in failed:
        print(f"{' '.join(a)} differs from {' '.join(b)}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
