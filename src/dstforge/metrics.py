"""Robustness metrics and closed-form compute/parameter accounting.

FLOPs conventions: a MAC counts as 2 FLOPs; a backward pass costs twice the
forward pass, so one training step costs 3x inference per example. Sparse
layers scale their MACs by the layer density; layers outside the allocation
are charged dense.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .data import DataError, ImageSet, atomic_write, load_image_set
from .models import ArchDescriptor, Model
from .schedulers import PROBE_METHODS, BudgetTrajectory
from .sparsity import DENSE, SparsityAllocation


@dataclass
class MetricsReport:
    """Per-(kind, severity) accuracies plus their unweighted mean."""

    cells: dict  # (kind, severity) -> accuracy
    mean: float
    model_id: str = ""
    baseline_id: str = ""
    per_kind_gain: dict = field(default_factory=dict)  # kind -> relative gain
    mean_gain: float | None = None

    def to_json(self) -> str:
        doc = {
            "model": self.model_id,
            "mean_robustness_accuracy": self.mean,
            "cells": [
                {"kind": k, "severity": s, "accuracy": a}
                for (k, s), a in sorted(self.cells.items())
            ],
        }
        if self.baseline_id:
            doc["baseline"] = self.baseline_id
            doc["per_kind_relative_gain"] = dict(sorted(self.per_kind_gain.items()))
            doc["mean_relative_gain"] = self.mean_gain
        return json.dumps(doc, indent=2, sort_keys=True)

    def write_csv(self, path):
        with atomic_write(path) as fh:
            fh.write("kind,severity,accuracy\n")
            for (k, s), a in sorted(self.cells.items()):
                fh.write(f"{k},{s},{a!r}\n")

    def kind_means(self) -> dict[str, float]:
        kinds = {}
        for (k, _), a in self.cells.items():
            kinds.setdefault(k, []).append(a)
        return {k: float(np.mean(v)) for k, v in kinds.items()}


@dataclass
class CostReport:
    arch: str
    method: str
    density: float
    inference_flops: float
    training_flops: float
    param_count: int
    trajectory: list = field(default_factory=list)  # (step, density) samples used
    probe_events: int = 0

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


# images per `predict` call of every accuracy: training's per-epoch test
# accuracy, evaluate, attenuate and the study
EVAL_BATCH = 500


def batched_accuracy(models: list[Model], images: np.ndarray, labels: np.ndarray,
                     sparse: bool = False, views=None) -> list:
    """Top-1 accuracy of each model's `predict`, EVAL_BATCH images at a time.

    `views`, when given, maps each batch of images to an iterable of batches,
    such as the batch filtered at each radius of a sweep, so that no filtered
    copy of a large set has to exist whole. Every model scores each view,
    which is built once, before the next view is requested, so a view is
    valid only until then and may reuse the previous view's buffer. The
    result is one list of per-model accuracies per view. An empty set, a
    label outside [0, classes) of any model, or images whose shape a model
    cannot take raises DataError.
    """
    if len(images) == 0:
        raise DataError("empty image set")
    classes = min(model.spec.classes for model in models)
    outside = (labels < 0) | (labels >= classes)
    if outside.any():
        bad = int(np.argmax(outside))
        raise DataError(f"label {int(labels[bad])} outside [0, {classes}) at record {bad}")
    correct = []  # per view, per model
    for lo in range(0, len(images), EVAL_BATCH):
        x = images[lo : lo + EVAL_BATCH]
        y = labels[lo : lo + EVAL_BATCH]
        for v, view in enumerate([x] if views is None else views(x)):
            if v == len(correct):
                correct.append([0] * len(models))
            for i, model in enumerate(models):
                try:
                    logits = model.predict(view, sparse=sparse)
                except ValueError as e:
                    raise DataError(f"images of shape {images.shape[1:]} do not match model "
                                    f"{model.spec.to_string()}: {e}") from e
                correct[v][i] += int((logits.argmax(axis=1) == y).sum())
    accs = [[c / len(images) for c in row] for row in correct]
    return accs[0] if views is None else accs


def accuracy(model: Model, s: ImageSet, sparse: bool = False) -> float:
    """Top-1 accuracy of the model on a labeled set; a DataError names the set."""
    try:
        return batched_accuracy([model], s.images, s.labels, sparse)[0]
    except DataError as e:
        raise DataError(f"set {s.name!r}: {e}") from e


def robustness_accuracy(models: list[Model], corrupted_sets: dict) -> list[MetricsReport]:
    """Accuracy per (kind, severity) cell and the unweighted mean over cells,
    one report per model.

    Each cell is an ImageSet or the path of a persisted set. A path is loaded
    only when its turn comes and every model scores it before the next one
    loads, so at most one loaded set is held at a time.
    """
    if not corrupted_sets:
        raise DataError("robustness_accuracy needs at least one set")
    cells = [{} for _ in models]
    for key, s in corrupted_sets.items():
        if not isinstance(s, ImageSet):
            s = load_image_set(s)
        for cell, model in zip(cells, models):
            cell[key] = accuracy(model, s)
    return [MetricsReport(cells=cell, mean=float(np.mean(list(cell.values()))),
                          model_id=model.spec.to_string())
            for cell, model in zip(cells, models)]


def relative_gain(acc_sparse: float, acc_dense: float) -> float:
    """(sparse - dense) / dense."""
    if acc_dense <= 0:
        raise ValueError(f"relative gain undefined for baseline accuracy {acc_dense}")
    return (acc_sparse - acc_dense) / acc_dense


def attach_baseline(report: MetricsReport, baseline: MetricsReport) -> MetricsReport:
    """Fill in per-kind and mean relative gains against a baseline report; a
    baseline that scores 0 on a kind, or on the mean, raises ValueError
    naming it."""
    def gain(what: str, acc: float, base: float) -> float:
        try:
            return relative_gain(acc, base)
        except ValueError as e:
            raise ValueError(f"{what}: {e}") from None

    base_kinds = baseline.kind_means()
    gains = {k: gain(f"kind {k}", v, base_kinds[k])
             for k, v in report.kind_means().items() if k in base_kinds}
    report.per_kind_gain = gains
    report.mean_gain = gain("the mean over all cells", report.mean, baseline.mean)
    report.baseline_id = baseline.model_id or "baseline"
    return report


# ---------------------------------------------------------------------------
# compute accounting


def _check_alloc(desc: ArchDescriptor, alloc: SparsityAllocation):
    names = {s.name for s in desc.layers}
    for lb in alloc.layers:
        if lb.name not in names:
            raise ValueError(f"allocation layer {lb.name!r} not present in {desc.name}")


def inference_flops(desc: ArchDescriptor, alloc: SparsityAllocation = DENSE,
                    at_density: float | None = None) -> float:
    """2 * MACs * density summed over layers; unallocated layers are dense.

    The layer densities are the allocation's, rescaled to the global density
    `at_density` when given (a schedule's instantaneous density).
    """
    _check_alloc(desc, alloc)
    dens = alloc.densities(at_density)
    total = 0.0
    for s in desc.layers:
        total += 2.0 * s.macs() * dens.get(s.name, 1.0)
    return total


def param_count(desc: ArchDescriptor, alloc: SparsityAllocation = DENSE) -> int:
    """The allocation's active-weight targets, plus everything else (biases,
    bn affines, weights the allocation leaves out) counted dense."""
    _check_alloc(desc, alloc)
    total = sum(s.param_count() for s in desc.layers)
    return total - alloc.total_weights() + sum(alloc.targets().values())


def training_flops(desc: ArchDescriptor, alloc: SparsityAllocation,
                   trajectory: BudgetTrajectory, steps: int, batch: int,
                   probe_events: int = 0) -> float:
    """batch * 3 * inference_flops at the trajectory's density, summed over
    steps. Each gradient-probe event (dense backward for regrowth scoring)
    adds batch * 3 * dense inference: the pass a sparse-kernel implementation
    would run, which this one does not (its step backward is already dense),
    so measured time and this account differ.
    """
    if steps < 1:
        raise ValueError("training_flops needs steps >= 1")
    samples = trajectory.samples
    if not samples or samples[0][0] != 0:
        raise ValueError("trajectory must start with a step-0 sample")
    if samples[-1][0] > steps:
        raise ValueError(f"trajectory sample at step {samples[-1][0]} is beyond {steps} steps")
    total = 0.0
    for i, (s0, d) in enumerate(samples):
        s1 = samples[i + 1][0] if i + 1 < len(samples) else steps
        seg = min(s1, steps) - s0
        if seg <= 0:
            continue
        total += seg * batch * 3.0 * inference_flops(desc, alloc, at_density=d)
    if probe_events:
        total += probe_events * batch * 3.0 * inference_flops(desc)
    return total


def cost_report(desc: ArchDescriptor, method: str,
                alloc: SparsityAllocation, trajectory: BudgetTrajectory,
                steps: int, batch: int, probe: bool = True) -> CostReport:
    """The FLOP and parameter account of one recipe at its final density.

    Gradient-probing methods are charged one dense probe per topology event
    (one per trajectory sample after step 0) unless `probe` is False. The
    probe is charged, not run: the training loop reads the step's own dense
    gradient (see `schedulers`).
    """
    final = trajectory.samples[-1][1]
    probes = len(trajectory.samples) - 1 if probe and method in PROBE_METHODS else 0
    return CostReport(
        arch=desc.name,
        method=method,
        density=final,
        inference_flops=inference_flops(desc, alloc, at_density=final),
        training_flops=training_flops(desc, alloc, trajectory, steps, batch, probe_events=probes),
        param_count=param_count(desc, alloc),
        trajectory=list(trajectory.samples),
        probe_events=probes,
    )
