"""Robustness metrics and closed-form compute/parameter accounting.

FLOPs conventions: a MAC counts as 2 FLOPs; a backward pass costs twice the
forward pass, so one training step costs 3x inference per example. Sparse
layers scale their MACs by the layer density; layers outside the allocation
are charged dense.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .data import DataError, ImageSet
from .models import ArchDescriptor, Model
from .schedulers import BudgetTrajectory
from .sparsity import SparsityAllocation


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
        with open(path, "w") as fh:
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
        return json.dumps({
            "arch": self.arch,
            "method": self.method,
            "density": self.density,
            "inference_flops": self.inference_flops,
            "training_flops": self.training_flops,
            "param_count": self.param_count,
            "probe_events": self.probe_events,
            "trajectory": [[s, d] for s, d in self.trajectory],
        }, indent=2, sort_keys=True)


def batched_accuracy(model: Model, images: np.ndarray, labels: np.ndarray,
                     batch_size: int = 512, sparse: bool = False, transform=None) -> float:
    """Top-1 accuracy of `model.predict`, `batch_size` images at a time.

    `transform`, when given, maps each batch of images before prediction, so
    a filtered copy of a large set never has to exist whole.
    """
    correct = 0
    for lo in range(0, len(images), batch_size):
        x = images[lo : lo + batch_size]
        if transform is not None:
            x = transform(x)
        pred = model.predict(x, sparse=sparse).argmax(axis=1)
        correct += int((pred == labels[lo : lo + batch_size]).sum())
    return correct / len(images)


def accuracy(model: Model, s: ImageSet, batch_size: int = 512, sparse: bool = False) -> float:
    """Top-1 accuracy of the model on a labeled set."""
    if len(s) == 0:
        raise DataError("empty image set")
    try:
        return batched_accuracy(model, s.images, s.labels, batch_size, sparse)
    except ValueError as e:
        raise DataError(f"set {s.name!r} does not match the model: {e}") from e


def robustness_accuracy(model: Model, corrupted_sets: dict) -> MetricsReport:
    """Accuracy per (kind, severity) cell and the unweighted mean over cells."""
    if not corrupted_sets:
        raise DataError("robustness_accuracy needs at least one set")
    cells = {}
    for key, s in corrupted_sets.items():
        cells[key] = accuracy(model, s)
    return MetricsReport(cells=cells, mean=float(np.mean(list(cells.values()))),
                         model_id=model.spec.to_string())


def relative_gain(acc_sparse: float, acc_dense: float) -> float:
    """(sparse - dense) / dense."""
    if acc_dense <= 0:
        raise ValueError(f"relative gain undefined for baseline accuracy {acc_dense}")
    return (acc_sparse - acc_dense) / acc_dense


def attach_baseline(report: MetricsReport, baseline: MetricsReport) -> MetricsReport:
    """Fill in per-kind and mean relative gains against a baseline report."""
    base_kinds = baseline.kind_means()
    gains = {k: relative_gain(v, base_kinds[k])
             for k, v in report.kind_means().items() if k in base_kinds}
    report.per_kind_gain = gains
    report.mean_gain = relative_gain(report.mean, baseline.mean)
    report.baseline_id = baseline.model_id or "baseline"
    return report


# ---------------------------------------------------------------------------
# compute accounting


def _density_lookup(desc: ArchDescriptor, alloc: SparsityAllocation | None) -> dict[str, float]:
    if alloc is None:
        return {}
    names = {s.name for s in desc.layers}
    for lb in alloc.layers:
        if lb.name not in names:
            raise ValueError(f"allocation layer {lb.name!r} not present in {desc.name}")
    return {lb.name: lb.density for lb in alloc.layers}


def inference_flops(desc: ArchDescriptor, alloc: SparsityAllocation | None = None,
                    density_scale: float = 1.0) -> float:
    """2 * MACs * density summed over layers; unallocated layers are dense.

    density_scale rescales every allocated layer's density (clamped at 1),
    which is how a schedule's instantaneous global density maps onto layers.
    """
    dens = _density_lookup(desc, alloc)
    total = 0.0
    for s in desc.layers:
        d = min(1.0, dens.get(s.name, 1.0) * (density_scale if s.name in dens else 1.0))
        total += 2.0 * s.macs() * d
    return total


def param_count(desc: ArchDescriptor, alloc: SparsityAllocation | None = None) -> int:
    """round(density * weights) per sparsifiable layer, plus everything else
    (biases, bn affines, non-sparsifiable weights) counted dense."""
    dens = _density_lookup(desc, alloc)
    total = 0
    for s in desc.layers:
        w = s.weight_count()
        rest = s.param_count() - w
        if s.name in dens:
            total += int(round(dens[s.name] * w)) + rest
        else:
            total += w + rest
    return total


def training_flops(desc: ArchDescriptor, alloc: SparsityAllocation | None,
                   trajectory: BudgetTrajectory, steps: int, batch: int,
                   probe_events: int = 0) -> float:
    """batch * 3 * inference_flops at the trajectory's density, summed over
    steps. Each gradient-probe event (dense backward for regrowth scoring)
    adds batch * 3 * dense inference.
    """
    if steps < 1:
        raise ValueError("training_flops needs steps >= 1")
    samples = trajectory.samples
    if not samples or samples[0][0] != 0:
        raise ValueError("trajectory must start with a step-0 sample")
    if samples[-1][0] > steps:
        raise ValueError(f"trajectory sample at step {samples[-1][0]} is beyond {steps} steps")
    base = alloc.global_density if alloc is not None else 1.0
    total = 0.0
    for i, (s0, d) in enumerate(samples):
        s1 = samples[i + 1][0] if i + 1 < len(samples) else steps
        seg = min(s1, steps) - s0
        if seg <= 0:
            continue
        total += seg * batch * 3.0 * inference_flops(desc, alloc, density_scale=d / base)
    if probe_events:
        total += probe_events * batch * 3.0 * inference_flops(desc, None)
    return total
