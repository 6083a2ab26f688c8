"""Training and evaluation loops.

Determinism contract: (config, seed) fixes every artifact byte. Weight init,
topology events, and epoch shuffles draw from three separate streams derived
from the seed, so a resumed run replays the exact step sequence: the epoch
permutation is regenerated from (seed, epoch), and the topology stream's state
rides along inside the checkpoint.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .checkpoint import Checkpoint, CheckpointError, load_checkpoint, save_checkpoint
from .config import RunConfig
from .data import DataError, ImageSet, atomic_write, load_cifar_binary, load_idx, load_image_set
from .metrics import (CostReport, MetricsReport, batched_accuracy, inference_flops, param_count,
                      robustness_accuracy, training_flops)
from .models import Model, build_model
from .optim import lr_at, sgd_momentum_step
from .schedulers import BudgetTrajectory, DstConfig, dst_digest, should_update, topology_update
from .sparsity import allocate_erk, allocate_uniform, apply_mask, init_topology, mask_shapes
from .spectral import RACurve, ra_curve
from .tensor import Tensor, backward, softmax_cross_entropy

_INIT_STREAM = 11
_TOPOLOGY_STREAM = 23
_SHUFFLE_STREAM = 37

PROBE_METHODS = ("rigl", "mest_r", "mest_g", "granet_g")


class DivergenceError(RuntimeError):
    pass


def load_train_test(cfg: RunConfig) -> tuple[ImageSet, ImageSet]:
    if cfg.fmt == "idx":
        # several training files concatenate in config order, as CIFAR batches
        # do; a single file is used as loaded, without a second copy
        labels = cfg.train_labels or (None,) * len(cfg.train_images)
        parts = [load_idx(img, lab, name=cfg.dataset, classes=cfg.classes)
                 for img, lab in zip(cfg.train_images, labels, strict=True)]
        train = parts[0] if len(parts) == 1 else ImageSet(
            np.concatenate([p.images for p in parts]),
            np.concatenate([p.labels for p in parts]), cfg.dataset, "idx")
        test = load_idx(cfg.test_images, cfg.test_labels, name=cfg.dataset, classes=cfg.classes)
    else:
        train = load_cifar_binary(list(cfg.train_images), name=cfg.dataset, classes=cfg.classes)
        test = load_cifar_binary(cfg.test_images, name=cfg.dataset, classes=cfg.classes)
    return train, test


def test_accuracy(model: Model, images: np.ndarray, labels: np.ndarray,
                  batch_size: int = 500) -> float:
    return batched_accuracy(model, images, labels, batch_size)


def make_allocation(cfg: RunConfig, model: Model):
    if cfg.dst.method == "dense":
        return None
    alloc_fn = allocate_erk if cfg.sparsity_dist == "erk" else allocate_uniform
    return alloc_fn(model.descriptor(), cfg.dst.sparsity, cfg.dense_overrides)


def run_train(cfg: RunConfig, resume_path=None, stop_after_step: int | None = None,
              echo=None) -> str:
    """Run the configured training; returns the path of the last checkpoint.

    Per step: forward on masked weights, backward, SGD step, re-mask, then a
    topology update when the schedule fires. One JSON line per epoch goes to
    metrics.jsonl (and `echo` when given). A non-finite loss aborts with the
    failing step number.
    """
    train, test = load_train_test(cfg)
    model = build_model(cfg.model, np.random.default_rng((cfg.seed, _INIT_STREAM)))
    rng = np.random.default_rng((cfg.seed, _TOPOLOGY_STREAM))
    dst = cfg.dst
    alloc = make_allocation(cfg, model)
    trajectory = BudgetTrajectory()
    mask = None
    if alloc is not None:
        mask = init_topology(alloc, mask_shapes(model), rng,
                             at_density=dst.initial_density())
        apply_mask(model, mask)
        trajectory.record(0, mask.global_density())
    else:
        trajectory.record(0, 1.0)

    start_step = 0
    epoch_loss_sum = 0.0
    epoch_loss_count = 0
    if resume_path is not None:
        ck = load_checkpoint(resume_path)
        if ck.dst_digest != dst_digest(dst):
            raise CheckpointError(
                f"{resume_path}: schedule config digest mismatch; this checkpoint was "
                f"written by a run with different [dst] settings")
        if ck.model_spec != cfg.model.to_string():
            raise CheckpointError(f"{resume_path}: model {ck.model_spec} does not match config")
        model = ck.build_model()
        mask = ck.mask()
        rng.bit_generator.state = ck.rng_state
        trajectory = BudgetTrajectory(ck.trajectory)
        start_step = ck.step
        epoch_loss_sum = ck.epoch_loss_sum
        epoch_loss_count = ck.epoch_loss_count

    os.makedirs(cfg.out_dir, exist_ok=True)
    metrics_path = os.path.join(cfg.out_dir, "metrics.jsonl")
    metrics_fh = open(metrics_path, "a" if resume_path else "w")

    schedule = cfg.lr_schedule()
    spe = cfg.steps_per_epoch
    total = cfg.total_steps
    params = model.parameters()
    perm = None
    last_ckpt = None

    def save(path, step):
        save_checkpoint(path, model, mask, step, rng, dst, cfg.seed, trajectory,
                        epoch_loss_sum, epoch_loss_count)
        return path

    try:
        for step in range(start_step, total):
            epoch = step // spe
            pos = step % spe
            if perm is None or pos == 0:
                perm = np.random.default_rng(
                    (cfg.seed, _SHUFFLE_STREAM, epoch)).permutation(train.images.shape[0])
            idx = perm[pos * cfg.batch_size : (pos + 1) * cfg.batch_size]
            x, y = train.images[idx], train.labels[idx]

            model.zero_grad()
            loss = softmax_cross_entropy(model.forward(Tensor(x)), y)
            loss_value = float(loss.data)
            completed = step + 1
            if not np.isfinite(loss_value):
                raise DivergenceError(f"loss diverged (non-finite) at step {completed}")
            backward(loss)
            sgd_momentum_step(params, lr=lr_at(schedule, step),
                              momentum=cfg.momentum, weight_decay=cfg.weight_decay)
            if mask is not None:
                apply_mask(model, mask)
                if should_update(dst, completed):
                    topology_update(model, mask, alloc, dst, completed, rng, (x, y))
                    apply_mask(model, mask)
                    trajectory.record(completed, mask.global_density())

            epoch_loss_sum += loss_value
            epoch_loss_count += 1

            if pos == spe - 1:
                evaluate = (epoch + 1) % cfg.eval_every == 0 or epoch == cfg.epochs - 1
                acc = test_accuracy(model, test.images, test.labels) if evaluate else None
                record = {
                    "epoch": epoch,
                    "train_loss": epoch_loss_sum / epoch_loss_count,
                    "test_acc": acc,
                    "density": mask.global_density() if mask is not None else 1.0,
                }
                line = json.dumps(record)
                metrics_fh.write(line + "\n")
                metrics_fh.flush()
                if echo:
                    echo(line)
                epoch_loss_sum = 0.0
                epoch_loss_count = 0

            if cfg.save_every and completed % cfg.save_every == 0 and completed < total:
                last_ckpt = save(os.path.join(cfg.out_dir, f"step{completed:08d}.ckpt"), completed)
            if stop_after_step is not None and completed == stop_after_step and completed < total:
                last_ckpt = save(os.path.join(cfg.out_dir, f"step{completed:08d}.ckpt"), completed)
                trajectory.write_csv(os.path.join(cfg.out_dir, "trajectory.csv"))
                return last_ckpt
    finally:
        metrics_fh.close()

    last_ckpt = save(os.path.join(cfg.out_dir, "final.ckpt"), total)
    trajectory.write_csv(os.path.join(cfg.out_dir, "trajectory.csv"))
    cost = CostReport(
        arch=cfg.model.to_string(),
        method=dst.method,
        density=trajectory.samples[-1][1],
        inference_flops=inference_flops(
            model.descriptor(), alloc,
            density_scale=(trajectory.samples[-1][1] / alloc.global_density) if alloc else 1.0),
        training_flops=training_flops(
            model.descriptor(), alloc, trajectory, total, cfg.batch_size,
            probe_events=(len(trajectory.samples) - 1) if dst.method in PROBE_METHODS else 0),
        param_count=param_count(model.descriptor(), alloc),
        trajectory=list(trajectory.samples),
        probe_events=(len(trajectory.samples) - 1) if dst.method in PROBE_METHODS else 0,
    )
    with atomic_write(os.path.join(cfg.out_dir, "cost.json")) as fh:
        fh.write(cost.to_json() + "\n")
    return last_ckpt


def load_model_from_checkpoint(path) -> tuple[Model, Checkpoint]:
    ck = load_checkpoint(path)
    return ck.build_model(), ck


def run_eval(ckpt_path, corrupted_sets: dict | None = None,
             attenuation: tuple | None = None) -> MetricsReport | RACurve:
    """Evaluate a checkpoint on corrupted sets, or sweep attenuation radii.

    `corrupted_sets` maps (kind, severity) to ImageSet or to a file path;
    `attenuation` is (clean ImageSet, mode, radii). Weights are never touched.
    """
    model, _ = load_model_from_checkpoint(ckpt_path)
    if (corrupted_sets is None) == (attenuation is None):
        raise ValueError("run_eval takes exactly one of corrupted_sets or attenuation")
    if corrupted_sets is not None:
        sets = {}
        for key, val in corrupted_sets.items():
            sets[key] = val if isinstance(val, ImageSet) else load_image_set(val)
        return robustness_accuracy(model, sets)
    clean, mode, radii = attenuation
    return ra_curve(model, clean, mode, radii)
