#!/usr/bin/env python
"""Digests of every artifact of a fixed grid of training runs.

    python scripts/parity.py SRC_DIR OUT_DIR

Imports dstforge from SRC_DIR (the `src` directory of a checkout) and trains
all seven methods on the synthetic blob task of perfbench/blobs.py:
`mlp:784-300-100-10` at sparsity 0.5 and 0.9 and `small_convnet:3x32x32-10`
at 0.5 (dense once per model), writing data and run directories under
OUT_DIR. For each run it prints `<run> <artifact> <sha256>` for final.ckpt,
metrics.jsonl, trajectory.csv and cost.json, and for the dense and sparse
`Model.predict` logits of the final checkpoint on a fixed batch. Run it on two
checkouts and diff the outputs: a change that keeps every byte prints the
same lines. BLAS runs on one thread, since float sums (and so the MLP
artifacts) change with the thread count.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
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


def _sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _sha256_logits(logits) -> str:
    head = f"{logits.dtype.str} {logits.shape}".encode()
    return hashlib.sha256(head + logits.tobytes()).hexdigest()


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
    from dstforge.checkpoint import load_checkpoint
    from dstforge.config import parse_config
    from dstforge.train import run_train

    if not os.path.abspath(dstforge.__file__).startswith(src_dir + os.sep):
        print(f"dstforge imported from {dstforge.__file__}, not {src_dir}", file=sys.stderr)
        return 2

    out = os.path.abspath(args.out_dir)
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

        for method in METHODS:
            for sparsity in (0.0,) if method == "dense" else sparsities:
                name = f"{kind}-{method}-s{round(sparsity * 100)}"
                run_dir = os.path.join(out, "runs", name)
                shutil.rmtree(run_dir, ignore_errors=True)
                cfg = parse_config(blobs.run_config(data, model, run_dir, SEED, epochs, bs, lr,
                                                    method, sparsity, delta_t))
                run_train(cfg)
                for artifact in ARTIFACTS:
                    print(name, artifact, _sha256_file(os.path.join(run_dir, artifact)))
                trained = load_checkpoint(os.path.join(run_dir, "final.ckpt")).build_model()
                for sparse in (False, True):
                    logits = trained.predict(test_x, sparse=sparse)
                    print(name, "predict-sparse" if sparse else "predict-dense",
                          _sha256_logits(logits))
                sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
