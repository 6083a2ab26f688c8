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
from .config import ConfigError, RunConfig
from .data import _unit_floats, atomic_write, load_split
from .metrics import MetricsReport, batched_accuracy, cost_report, robustness_accuracy
from .models import Model, build_model
from .optim import lr_at, sgd_momentum_step
from .schedulers import BudgetTrajectory, should_update, topology_update
from .sparsity import apply_mask, init_topology, mask_shapes
from .spectral import RACurve, ra_curve
from .tensor import backward, softmax_cross_entropy

_INIT_STREAM = 11
_TOPOLOGY_STREAM = 23
_SHUFFLE_STREAM = 37


class DivergenceError(RuntimeError):
    pass


Split = tuple[np.ndarray, np.ndarray]  # uint8 pixels (n, c, h, w), int64 labels


def load_train_test(cfg: RunConfig, digests: dict | None = None) -> tuple[Split, Split]:
    """The run's training and test splits as pixel bytes and labels
    (`data.load_split`); `digests` gets each data file's SHA-256."""
    train = load_split(cfg.fmt, cfg.train_images, cfg.train_labels, cfg.classes, digests)
    test = load_split(cfg.fmt, (cfg.test_images,), (cfg.test_labels,), cfg.classes, digests)
    return train, test


def test_accuracy(model: Model, pixels: np.ndarray, labels: np.ndarray) -> float:
    """Top-1 accuracy on uint8 pixels, converted one EVAL_BATCH at a time."""
    return batched_accuracy([model], pixels, labels, views=lambda x: (_unit_floats(x),))[0][0]


def _keep_epoch_lines(metrics_path: str, epochs: int):
    """Cut metrics.jsonl back to the lines of the `epochs` epochs a resumed
    checkpoint has completed, so a resume from an earlier checkpoint of the
    same run writes every later epoch once."""
    try:
        with open(metrics_path) as fh:
            lines = fh.readlines()
    except FileNotFoundError:
        lines = []
    if len(lines) < epochs:
        raise CheckpointError(
            f"{metrics_path}: holds {len(lines)} epoch lines, but the checkpoint "
            f"has completed {epochs} epochs")
    with atomic_write(metrics_path) as fh:
        fh.writelines(lines[:epochs])


def run_train(cfg: RunConfig, resume_path=None, stop_after_step: int | None = None,
              echo=None) -> str:
    """Run the configured training; returns the path of the last checkpoint.

    Per step: forward on masked weights, backward, SGD step, re-mask, then a
    topology update when the schedule fires, which reads the gradients this
    step's backward left on the weights. `stop_after_step` must lie after the
    step the run starts from and at most at its last step, which completes
    the run. One JSON line per epoch goes to
    metrics.jsonl (and `echo` when given), which is synced before each
    checkpoint is written. A finished run writes trajectory.csv, then
    cost.json, then final.ckpt last: a final.ckpt marks a whole run. A
    non-finite loss aborts with the failing step number.

    The splits stay uint8 pixels for the whole run: each step converts its
    batch, and each evaluation its test batches, to float32 (`data._unit_floats`).
    Each data file is read once, and the run digest hashes the bytes read,
    not the files again.
    """
    digests = {}
    (train_x, train_y), (test_x, test_y) = load_train_test(cfg, digests)
    run_digest = cfg.digest(digests.__getitem__)
    model = build_model(cfg.model, np.random.default_rng((cfg.seed, _INIT_STREAM)))
    rng = np.random.default_rng((cfg.seed, _TOPOLOGY_STREAM))
    dst = cfg.dst
    alloc = cfg.allocation()
    mask = init_topology(alloc, mask_shapes(model), rng, at_density=dst.initial_density())
    apply_mask(model, mask)
    trajectory = BudgetTrajectory([(0, mask.global_density())])

    start_step = 0
    epoch_loss_sum = 0.0
    epoch_loss_count = 0
    if resume_path is not None:
        ck = load_checkpoint(resume_path)
        if ck.run_digest != run_digest:
            raise CheckpointError(f"{resume_path}: run digest mismatch; it was written with "
                                  f"other settings outside [output] or other data")
        model = ck.build_model()
        mask = ck.mask()
        rng.bit_generator.state = ck.rng_state
        trajectory = BudgetTrajectory(ck.trajectory)
        start_step = ck.step
        epoch_loss_sum = ck.epoch_loss_sum
        epoch_loss_count = ck.epoch_loss_count
    if stop_after_step is not None and not start_step < stop_after_step <= cfg.total_steps:
        raise ConfigError(f"stop after step {stop_after_step}: the run goes from step "
                          f"{start_step} to step {cfg.total_steps}, so it would never stop there")

    spe = cfg.steps_per_epoch
    os.makedirs(cfg.out_dir, exist_ok=True)
    metrics_path = os.path.join(cfg.out_dir, "metrics.jsonl")
    if resume_path is not None:
        _keep_epoch_lines(metrics_path, start_step // spe)
    metrics_fh = open(metrics_path, "a" if resume_path else "w")

    schedule = cfg.lr_schedule()
    total = cfg.total_steps
    params = model.parameters()
    perm = None
    last_ckpt = None

    def save(path, step):
        os.fsync(metrics_fh.fileno())  # each line is flushed when written
        save_checkpoint(path, model, mask, step, rng, dst, cfg.seed, run_digest, trajectory,
                        epoch_loss_sum, epoch_loss_count)
        return path

    try:
        for step in range(start_step, total):
            epoch = step // spe
            pos = step % spe
            if perm is None or pos == 0:
                perm = np.random.default_rng(
                    (cfg.seed, _SHUFFLE_STREAM, epoch)).permutation(train_x.shape[0])
            idx = perm[pos * cfg.batch_size : (pos + 1) * cfg.batch_size]
            x, y = _unit_floats(train_x[idx]), train_y[idx]

            model.zero_grad()
            tape = []
            loss_value, dlogits = softmax_cross_entropy(model.forward(x, tape), y)
            completed = step + 1
            if not np.isfinite(loss_value):
                raise DivergenceError(f"loss diverged (non-finite) at step {completed}")
            backward(model.layers, tape, dlogits)
            sgd_momentum_step(params, lr=lr_at(schedule, step),
                              momentum=cfg.momentum, weight_decay=cfg.weight_decay)
            apply_mask(model, mask)
            if should_update(dst, completed):
                topology_update(model, mask, alloc, dst, completed, rng)
                apply_mask(model, mask)
                trajectory.record(completed, mask.global_density())

            epoch_loss_sum += loss_value
            epoch_loss_count += 1

            if pos == spe - 1:
                evaluate = (epoch + 1) % cfg.eval_every == 0 or epoch == cfg.epochs - 1
                acc = test_accuracy(model, test_x, test_y) if evaluate else None
                record = {
                    "epoch": epoch,
                    "train_loss": epoch_loss_sum / epoch_loss_count,
                    "test_acc": acc,
                    "density": mask.global_density(),
                }
                line = json.dumps(record)
                metrics_fh.write(line + "\n")
                metrics_fh.flush()
                if echo:
                    echo(line)
                epoch_loss_sum = 0.0
                epoch_loss_count = 0

            if completed < total:
                stop = completed == stop_after_step
                if stop or (cfg.save_every and completed % cfg.save_every == 0):
                    last_ckpt = save(os.path.join(cfg.out_dir, f"step{completed:08d}.ckpt"), completed)
                if stop:
                    trajectory.write_csv(os.path.join(cfg.out_dir, "trajectory.csv"))
                    return last_ckpt

        trajectory.write_csv(os.path.join(cfg.out_dir, "trajectory.csv"))
        cost = cost_report(model.descriptor(), dst.method, alloc, trajectory, total,
                           cfg.batch_size)
        with atomic_write(os.path.join(cfg.out_dir, "cost.json")) as fh:
            fh.write(cost.to_json() + "\n")
        return save(os.path.join(cfg.out_dir, "final.ckpt"), total)
    finally:
        metrics_fh.close()


def load_model_from_checkpoint(path) -> tuple[Model, Checkpoint]:
    """The model of a checkpoint, for scoring: its momenta are not read, so
    the model cannot train (see `checkpoint.load_checkpoint`)."""
    ck = load_checkpoint(path, momenta=False)
    return ck.build_model(), ck


def run_eval(ckpt_path, corrupted_sets: dict | None = None,
             attenuation: tuple | None = None) -> MetricsReport | RACurve:
    """Evaluate a checkpoint on corrupted sets, or sweep attenuation radii.

    `corrupted_sets` maps (kind, severity) to ImageSet or to a file path;
    `attenuation` is (clean ImageSet, mode, radii). Weights are never touched.
    """
    if (corrupted_sets is None) == (attenuation is None):
        raise ValueError("run_eval takes exactly one of corrupted_sets or attenuation")
    model, _ = load_model_from_checkpoint(ckpt_path)
    if corrupted_sets is not None:
        return robustness_accuracy([model], corrupted_sets)[0]
    clean, mode, radii = attenuation
    return ra_curve([model], clean, mode, radii)[0]
