"""The three workloads: set-up, one round of operations, and output checks.

Every round runs the same operations in the same order, one at a time (a
closed loop with a single caller). dstforge functions are always reached
through their module (`dtrain.run_train`, not an imported name) so that the
traced pass sees the calls the benchmark makes.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from dataclasses import dataclass

import numpy as np

import blobs
import oracle
from dstforge import config as dconfig
from dstforge import corruption as dcorr
from dstforge import data as ddata
from dstforge import metrics as dmetrics
from dstforge import spectral as dspectral
from dstforge import study as dstudy
from dstforge import train as dtrain

PROBE_METHODS = ("rigl", "mest_g", "granet_g")  # regrowth scores a dense gradient
SPARSITY = 0.5  # ERK; every sparse method learns the blob task here in a few dozen steps


@dataclass
class Op:
    """Outcome of one operation: its wall time, the items it processed,
    whether it counts toward the workload's throughput, and for training runs
    the training FLOPs their cost.json accounts."""

    tag: str
    seconds: float
    items: int
    error: str | None = None
    counted: bool = True
    cost_flops: float = 0.0


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def _macs(ckpt: dict, hw: int) -> int:
    """Dense multiply-adds per example from the layer shapes: a 3x3 'same'
    conv runs at its input resolution, halved by each 2x2 pool before it."""
    total = 0
    for ly in ckpt["layers"]:
        total += ly["w"].size * (hw * hw if ly["w"].ndim == 4 else 1)
        if ly["w"].ndim == 4:
            hw //= 2
    return total


class TrainingWorkload:
    """Closed loop over `run_train`, one run per method per round."""

    setup_reps = 5

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, d: str):
        os.makedirs(d, exist_ok=True)
        self.d = d
        self.data, self.test_file = self.write_data(d)

    def config(self, method: str, out_dir: str | None = None):
        return dconfig.parse_config(blobs.run_config(
            self.data, self.model, out_dir or os.path.join(self.d, "runs", method), self.seed,
            self.epochs, self.bs, self.lr, method, 0.0 if method == "dense" else SPARSITY,
            self.delta_t))

    def run_method(self, method: str, out_dir: str | None = None, **kwargs):
        cfg = self.config(method, out_dir)
        return cfg, _timed(lambda: dtrain.run_train(cfg, **kwargs))

    def round(self) -> list[Op]:
        ops = []
        for m in self.methods:
            cfg, (_, dt) = self.run_method(m)
            with open(os.path.join(cfg.out_dir, "cost.json")) as fh:
                cost = json.load(fh)["training_flops"]
            ops.append(Op(m, dt, cfg.total_steps * cfg.batch_size, cost_flops=cost))
        return ops

    def check(self) -> list[str]:
        errs = []
        test_x, test_y = self.read_test()
        for m in self.methods:
            cfg = self.config(m)
            run = cfg.out_dir
            what = f"{self.name}/{m}"
            ckpt = oracle.read_checkpoint(os.path.join(run, "final.ckpt"))
            correct, ties = oracle.score(oracle.forward(ckpt, test_x), test_y)
            errs += oracle.check_accuracy(f"{what} test_acc", oracle.last_test_acc(
                os.path.join(run, "metrics.jsonl")), correct, ties, len(test_y), oracle.CHANCE_FLOOR)
            errs += oracle.check_masked_zero(what, ckpt, expect_masks=m != "dense")
            traj = oracle.read_trajectory(os.path.join(run, "trajectory.csv"))
            n_weights = sum(ly["w"].size for ly in ckpt["layers"])
            if m == "dense":
                if traj != [(0, 1.0)]:
                    errs.append(f"{what}: dense trajectory {traj}")
            else:
                errs += oracle.check_trajectory(what, traj, m, cfg.total_steps, self.delta_t,
                                                1.0 - SPARSITY, len(ckpt["layers"]), n_weights)
            with open(os.path.join(run, "cost.json")) as fh:
                claimed = json.load(fh)["training_flops"]
            macs = _macs(ckpt, self.hw)
            if m == "dense":
                errs += oracle.check_flops(what, claimed, oracle.dense_train_flops(
                    cfg.batch_size, cfg.total_steps, macs))
            elif self.model.startswith("mlp:"):
                probes = len(traj) - 1 if m in PROBE_METHODS else 0
                errs += oracle.check_flops(what, claimed, oracle.mlp_sparse_train_flops(
                    cfg.batch_size, cfg.total_steps, traj, n_weights, probes))
        errs += self.check_resume()
        return errs

    def check_resume(self) -> list[str]:
        """Stop the resume method mid-run, resume it, and compare final.ckpt
        with the uninterrupted run of the last round."""
        m = self.resume_method
        out = os.path.join(self.d, "resume", m)
        shutil.rmtree(out, ignore_errors=True)
        cfg, (mid, _) = self.run_method(m, out, stop_after_step=self.resume_step)
        self.run_method(m, out, resume_path=mid)
        return oracle.check_same_bytes(
            f"{self.name}/{m} resumed at step {self.resume_step}",
            _read_bytes(os.path.join(out, "final.ckpt")),
            _read_bytes(os.path.join(self.d, "runs", m, "final.ckpt")))


class MlpTraining(TrainingWorkload):
    name = "mlp-dst-train"
    model = "mlp:784-300-100-10"
    hw = 28
    methods = ("dense", "set", "rigl", "mest_g", "granet_g")
    epochs, bs, lr, delta_t = 2, 100, 0.1, 5
    n_train, n_test = 1000, 300
    resume_method, resume_step = "rigl", 7
    split_files = 2  # the known-failing run names this many training files
    split_each = 300

    def write_data(self, d):
        tr = blobs.write_idx_pair(d, "train", *blobs.make_blob_set(self.n_train, (self.seed, 1), (1, 28, 28)))
        te = blobs.write_idx_pair(d, "t10k", *blobs.make_blob_set(self.n_test, (self.seed, 2), (1, 28, 28)))
        # split-file inputs come from fixed seeds: the run fails on every seed
        parts = [blobs.write_idx_pair(d, f"split{i}", *blobs.make_blob_set(self.split_each, (0, 10 + i), (1, 28, 28)))
                 for i in range(self.split_files)]
        self.split_config = blobs.run_config(
            {"format": "idx", "train": ",".join(p[0] for p in parts),
             "train_labels": ",".join(p[1] for p in parts), "test": parts[0][0],
             "test_labels": parts[0][1]},
            self.model, os.path.join(d, "runs", "split-idx"), 0, 1, self.bs, self.lr)
        return {"format": "idx", "train": tr[0], "train_labels": tr[1], "test": te[0],
                "test_labels": te[1]}, te

    def read_test(self):
        return oracle.read_idx_images(self.test_file[0]), oracle.read_idx_labels(self.test_file[1])

    def round(self) -> list[Op]:
        """The known fault first: `[data] train` naming two IDX files. config
        counts both, train.load_train_test loads only the first, and the run
        dies at the first batch past it. Its time and samples never count."""
        cfg = dconfig.parse_config(self.split_config)
        t0 = time.perf_counter()
        try:
            dtrain.run_train(cfg)
            err = None
        except ValueError as e:
            err = str(e).splitlines()[0]
        ops = [Op("split-idx", time.perf_counter() - t0, 0, err, counted=False)]
        return ops + super().round()


class ConvnetTraining(TrainingWorkload):
    name = "convnet-dst-train"
    model = "small_convnet:3x32x32-10"
    hw = 32
    methods = ("dense", "rigl")
    epochs, bs, lr, delta_t = 2, 20, 0.1, 4
    n_train, n_test = 200, 100
    resume_method, resume_step = "rigl", 10

    def write_data(self, d):
        tr = blobs.write_cifar(os.path.join(d, "train.bin"),
                               *blobs.make_blob_set(self.n_train, (self.seed, 3), (3, 32, 32)))
        te = blobs.write_cifar(os.path.join(d, "test.bin"),
                               *blobs.make_blob_set(self.n_test, (self.seed, 4), (3, 32, 32)))
        return {"format": "cifar", "train": tr, "test": te}, te

    def read_test(self):
        return oracle.read_image_file(self.test_file)


class Robustness:
    """corrupt -> evaluate -> attenuate -> study, on checkpoints trained in set-up."""

    name = "robustness"
    setup_reps = 3
    kinds = dcorr.KINDS
    severities = (1, 2, 3, 4, 5)
    radii = (0, 4, 8, 12, 16)
    study_radii = (2, 4, 6, 8, 10)
    n_train, n_test, n_study_train, n_study_test = 200, 20, 1000, 200
    study_methods = (dstudy.StudyMethod("dense", "dense"), dstudy.StudyMethod("set_s50", "set", 0.5))
    study_epochs = 2
    rerender_samples = 8

    def __init__(self, seed: int):
        self.seed = seed
        self.corruption_seed = seed % 100003
        self.setup_ckpts: list[bytes] = []

    def setup(self, d: str):
        os.makedirs(d, exist_ok=True)
        self.d = d
        tr = blobs.write_cifar(os.path.join(d, "train.bin"),
                               *blobs.make_blob_set(self.n_train, (self.seed, 3), (3, 32, 32)))
        self.test_file = blobs.write_cifar(os.path.join(d, "test.bin"),
                                           *blobs.make_blob_set(self.n_test, (self.seed, 4), (3, 32, 32)))
        text = blobs.run_config({"format": "cifar", "train": tr, "test": self.test_file},
                                "small_convnet:3x32x32-10", os.path.join(d, "convnet"),
                                self.seed, 2, 20, 0.1)
        self.ckpt = dtrain.run_train(dconfig.parse_config(text))
        self.setup_ckpts.append(_read_bytes(self.ckpt))

        data_dir = os.path.join(d, "idx")
        os.makedirs(data_dir)
        blobs.write_idx_pair(data_dir, "train", *blobs.make_blob_set(self.n_study_train, (self.seed, 1), (1, 28, 28)))
        blobs.write_idx_pair(data_dir, "t10k", *blobs.make_blob_set(self.n_study_test, (self.seed, 2), (1, 28, 28)))
        self.study_data = dstudy.find_idx_dataset(data_dir)
        self.study_root = os.path.join(d, "study")
        self.study_ckpts = {}
        for m in self.study_methods:
            _, ck = dstudy.ensure_run(m, self.seed, self.study_epochs, self.study_data, self.study_root)
            self.study_ckpts[m.label] = ck
        self.corr_dir = os.path.join(d, "corrupted")

    def round(self) -> list[Op]:
        n, cells = self.n_test, len(self.kinds) * len(self.severities)
        base = os.path.splitext(os.path.basename(self.test_file))[0]  # as the corrupt command names it

        def corrupt():
            clean = ddata.load_image_set(self.test_file)
            sets = dcorr.build_corrupted_set(clean, self.kinds, self.severities,
                                             seed=self.corruption_seed)
            paths = ddata.write_corrupted_sets(sets, self.corr_dir, base)
            return clean, sets, paths

        (clean, sets, paths), t_corrupt = _timed(corrupt)
        files = {}
        for p in paths:
            _, kind, sev = ddata.parse_corrupted_set_filename(p)
            files[(kind, sev)] = p

        def evaluate():
            report = dtrain.run_eval(self.ckpt, corrupted_sets=files)
            model, _ = dtrain.load_model_from_checkpoint(self.study_ckpts["set_s50"])
            test28 = ddata.load_idx(self.study_data["test_images"], self.study_data["test_labels"])
            return report, dmetrics.accuracy(model, test28, sparse=True)

        (report, sparse_acc), t_eval = _timed(evaluate)

        def attenuate():
            clean = ddata.load_image_set(self.test_file)
            return {mode: dtrain.run_eval(self.ckpt, attenuation=(clean, mode, self.radii))
                    for mode in ("low", "high")}

        curves, t_att = _timed(attenuate)

        shutil.rmtree(os.path.join(self.study_root, "corrupted"), ignore_errors=True)
        _, t_study = _timed(lambda: dstudy.run_study(
            self.study_data, self.study_root, epochs=self.study_epochs, seeds=(self.seed,),
            methods=self.study_methods, radii=self.study_radii,
            corruption_seed=self.corruption_seed))

        self.last = {"clean": clean, "sets": sets, "files": files, "report": report,
                     "sparse_acc": sparse_acc, "curves": curves}
        n_t, n_models = self.n_study_test, len(self.study_methods)
        study_items = (cells * n_t  # rendered
                       + 2 * len(self.study_radii) * n_t  # filtered
                       + n_models * (1 + cells + 2 * len(self.study_radii)) * n_t)  # scored
        return [
            Op("corrupt", t_corrupt, cells * n),
            Op("evaluate", t_eval, cells * n + n_t),
            Op("attenuate", t_att, 2 * 2 * len(self.radii) * n),
            Op("study", t_study, study_items),
        ]

    def check(self) -> list[str]:
        errs = []
        last = self.last
        if len(set(self.setup_ckpts)) != 1:
            errs.append("robustness: set-up repetitions trained different checkpoint bytes")
        clean_x, clean_y = oracle.read_image_file(self.test_file)
        conv = oracle.read_checkpoint(self.ckpt)

        # corrupt: ranges, shapes, labels, severity order, one-at-a-time re-render
        errs += oracle.check_corrupted(
            "corrupt 3x32x32", clean_x, clean_y,
            {k: (s.images, s.labels) for k, s in last["sets"].items()})
        rng = np.random.default_rng((self.seed, 99))
        keys = sorted(last["sets"])
        for _ in range(self.rerender_samples):
            kind, sev = keys[rng.integers(len(keys))]
            i = int(rng.integers(self.n_test))
            one = dcorr.corrupt(last["clean"].images[i], dcorr.CorruptionSpec(kind, sev, self.corruption_seed), i)
            errs += oracle.check_same_bytes(f"corrupt {kind}-s{sev} image {i} re-rendered alone",
                                            one.tobytes(), last["sets"][(kind, sev)].images[i].tobytes())

        # evaluate: every cell against the reference forward on the file as written
        if sorted(last["report"].cells) != keys:
            errs.append(f"evaluate: scored cells {sorted(last['report'].cells)}, rendered {keys}")
        for key, path in last["files"].items():
            x, y = oracle.read_image_file(path)
            if not np.array_equal(y, clean_y):
                errs.append(f"evaluate: {path} labels differ from the clean set")
            correct, ties = oracle.score(oracle.forward(conv, x), y)
            errs += oracle.check_accuracy(f"evaluate {key[0]}-s{key[1]}", last["report"].cells[key],
                                          correct, ties, len(y))
        x28 = oracle.read_idx_images(self.study_data["test_images"])
        y28 = oracle.read_idx_labels(self.study_data["test_labels"])
        set_ck = oracle.read_checkpoint(self.study_ckpts["set_s50"])
        correct, ties = oracle.score(oracle.forward(set_ck, x28), y28)
        errs += oracle.check_accuracy("evaluate sparse path set_s50", last["sparse_acc"],
                                      correct, ties, len(y28), oracle.CHANCE_FLOOR)

        # attenuate: r = 0 is the identity, on the pixels and on the scores
        for mode in ("low", "high"):
            diff = np.abs(dspectral.attenuate_images(last["clean"].images, mode, 0) - last["clean"].images)
            if diff.max() > 1e-5:
                errs.append(f"attenuate {mode} r=0 changes pixels by up to {diff.max():.3g}")
        correct, ties = oracle.score(oracle.forward(conv, clean_x), clean_y)
        if correct < oracle.CHANCE_FLOOR * len(clean_y):
            errs.append(f"convnet checkpoint: clean accuracy {correct}/{len(clean_y)} "
                        f"below {oracle.CHANCE_FLOOR}")
        for mode, curve in last["curves"].items():
            r0, acc0 = curve.points[0]
            if r0 != 0:
                errs.append(f"attenuate {mode}: first radius {r0}, expected 0")
            errs += oracle.check_accuracy(f"attenuate {mode} r=0", acc0, correct, ties, len(clean_y))

        # study: clean accuracies, and the 1x28x28 corrupted grid it wrote
        with open(os.path.join(self.study_root, "study.json")) as fh:
            doc = json.load(fh)
        for m in self.study_methods:
            ck = oracle.read_checkpoint(self.study_ckpts[m.label])
            correct, ties = oracle.score(oracle.forward(ck, x28), y28)
            errs += oracle.check_accuracy(f"study {m.label} clean",
                                          doc["clean_accuracy"][f"{m.label}-seed{self.seed}"],
                                          correct, ties, len(y28), oracle.CHANCE_FLOOR)
        corr = os.path.join(self.study_root, "corrupted")
        base = os.path.basename(self.study_data["test_images"])
        grid = {}
        for kind in self.kinds:
            for sev in self.severities:
                grid[(kind, sev)] = oracle.read_image_file(
                    os.path.join(corr, ddata.corrupted_set_filename(base, kind, sev)))
        errs += oracle.check_corrupted("study 1x28x28", x28, y28, grid)
        return errs


WORKLOADS = {w.name: w for w in (MlpTraining, ConvnetTraining, Robustness)}
