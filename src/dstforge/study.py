"""Desk-scale robustness study: a small stable of models on one dataset.

Trains dense and sparse variants over several seeds, builds the corrupted
test grid once, and collects robustness accuracies plus frequency-attenuation
curves; `dstforge study` runs the default stable. `run_study` plans, then
runs: it parses every cell's config and checks every run directory, the
radii and the corruption grid before anything is trained or rendered, so a
refused study leaves nothing behind; then it trains the missing cells,
renders the missing grid cells and scores every model. Finished runs are
recognized by the run digest in their final.ckpt and reused, so a crashed
or repeated invocation only pays for what is missing. The plan hashes each
data file once, and a finished run's checkpoint is read without its
momenta, which scoring never reads.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .checkpoint import Checkpoint, CheckpointError, load_checkpoint
from .config import RunConfig, parse_config
from .corruption import KINDS, SEVERITIES, CorruptionSpec, build_corrupted_set
from .data import (ImageSet, atomic_write, corrupted_set_filename, image_file_shape, load_idx,
                   sha256_file, write_corrupted_sets)
from .metrics import accuracy, robustness_accuracy
from .models import Model
from .spectral import RACurve, check_radii, ra_curve, write_ra_curves_svg
from .train import run_train

DEFAULT_RADII = (2, 4, 6, 8, 10)
DEFAULT_SEEDS = (1, 2, 3)

CANONICAL_IDX_NAMES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}


class StudyError(RuntimeError):
    pass


def find_idx_dataset(root: str | None = None) -> dict[str, str] | None:
    """Locate a canonical IDX dataset (train/t10k image+label files).

    Searches `root` (default: $DSTFORGE_DATA or ./data) and its first-level
    subdirectories; returns path dict or None when any file is missing.
    """
    root = root or os.environ.get("DSTFORGE_DATA") or "data"
    candidates = [root]
    if os.path.isdir(root):
        candidates += sorted(
            os.path.join(root, d) for d in os.listdir(root)
            if os.path.isdir(os.path.join(root, d)))
    for base in candidates:
        paths = {k: os.path.join(base, v) for k, v in CANONICAL_IDX_NAMES.items()}
        if all(os.path.exists(p) for p in paths.values()):
            return paths
    return None


@dataclass(frozen=True)
class StudyMethod:
    label: str
    method: str
    sparsity: float = 0.0


DEFAULT_METHODS = (
    StudyMethod("dense", "dense"),
    StudyMethod("set_s50", "set", 0.5),
    StudyMethod("set_s95", "set", 0.95),
    StudyMethod("rigl_s50", "rigl", 0.5),
)


def study_config_text(m: StudyMethod, seed: int, epochs: int,
                      data: dict[str, str], out_dir: str) -> str:
    lines = [
        "[data]",
        "dataset = fashion-mnist",
        "format = idx",
        f"train = {data['train_images']}",
        f"train_labels = {data['train_labels']}",
        f"test = {data['test_images']}",
        f"test_labels = {data['test_labels']}",
        "classes = 10",
        "",
        "[train]",
        "model = mlp:784-300-100-10",
        f"epochs = {epochs}",
        f"seed = {seed}",
        "lr = 0.1",
        "bs = 100",
        "lrs = step",
        "wd = 1e-4",
        "momentum = 0.9",
        "eval_every = 5",
        "",
        "[output]",
        f"dir = {out_dir}",
    ]
    if m.method != "dense":
        lines += [
            "",
            "[dst]",
            f"method = {m.method}",
            f"sparsity = {m.sparsity}",
            "sparsity_dist = erk",
            "delta_t = 500",
            "p = 0.1",
        ]
    return "\n".join(lines) + "\n"


@dataclass
class _Cell:
    """One (label, seed) run of a study as `_Cell.plan` found it: its config
    parsed, its run directory checked and `loaded` the final.ckpt there,
    read for scoring (without its momenta)."""

    label: str
    run_dir: str
    ckpt: str
    text: str
    cfg: RunConfig
    loaded: Checkpoint | None = None

    @classmethod
    def plan(cls, m: StudyMethod, seed: int, epochs: int, data: dict[str, str],
             root: str, sha256=None) -> _Cell:
        """Parse the cell's config and check its run directory, writing
        nothing: a final.ckpt must carry the run digest (`RunConfig.digest`,
        with `sha256` when given), a config.ini without one the same text."""
        run_dir = os.path.join(root, f"{m.label}-seed{seed}")
        text = study_config_text(m, seed, epochs, data, run_dir)
        cell = cls(m.label, run_dir, os.path.join(run_dir, "final.ckpt"), text, parse_config(text))
        if os.path.exists(cell.ckpt):
            try:
                cell.loaded = load_checkpoint(cell.ckpt, momenta=False)
            except CheckpointError as e:
                raise StudyError(f"{run_dir}: {e}; remove it to rerun") from None
            if cell.loaded.run_digest != cell.cfg.digest(sha256):
                raise StudyError(f"{run_dir} holds a run of another config or data; "
                                 f"remove it to rerun")
        elif os.path.exists(cfg_path := os.path.join(run_dir, "config.ini")):
            with open(cfg_path) as fh:
                if fh.read() != text:
                    raise StudyError(f"{run_dir} holds results for a different config; "
                                     f"remove it to rerun")
        return cell

    def train(self, echo=None):
        os.makedirs(self.run_dir, exist_ok=True)
        with atomic_write(os.path.join(self.run_dir, "config.ini")) as fh:
            fh.write(self.text)
        if echo:
            echo(f"training {self.label} seed {self.cfg.seed}")
        run_train(self.cfg)


def ensure_run(m: StudyMethod, seed: int, epochs: int, data: dict[str, str],
               root: str, echo=None) -> tuple[RunConfig, str]:
    """Train one (method, seed) cell unless its final.ckpt carries the cell's
    run digest. Any other final.ckpt, or another config.ini, raises StudyError."""
    cell = _Cell.plan(m, seed, epochs, data, root)
    if cell.loaded is None:
        cell.train(echo)
    return cell.cfg, cell.ckpt


def ensure_corrupted_set(clean: ImageSet, corr_dir: str, base: str, spec: CorruptionSpec) -> str:
    """Path of one corrupted grid cell, rendering and writing it if missing."""
    path = os.path.join(corr_dir, corrupted_set_filename(base, spec.kind, spec.severity))
    if not os.path.exists(path):
        sets = build_corrupted_set(clean, [spec.kind], [spec.severity], seed=spec.seed)
        write_corrupted_sets(sets, corr_dir, base)
    return path


def _pin_grid_source(corr_dir: str, data: dict[str, str], corruption_seed: int, sha256):
    """Tie the cached corrupted grid to what it was rendered from.

    Cells are cached by file name alone, so `corr_dir/source.json` records the
    SHA-256 of the test image and label files and the corruption seed. A grid
    rendered from other sources, or cells without that record, raise
    StudyError rather than being scored as if they were current.
    """
    source = {
        "corruption_seed": corruption_seed,
        "test_images_sha256": sha256(data["test_images"]),
        "test_labels_sha256": sha256(data["test_labels"]),
    }
    path = os.path.join(corr_dir, "source.json")
    if os.path.exists(path):
        with open(path) as fh:
            pinned = json.load(fh)
        if pinned != source:
            raise StudyError(
                f"{corr_dir} was rendered from {pinned}, not the current {source}; "
                f"remove it to rerun")
        return
    os.makedirs(corr_dir, exist_ok=True)
    if any(name.endswith(".bin") for name in os.listdir(corr_dir)):
        raise StudyError(f"{corr_dir} holds corrupted sets but no source.json; remove it to rerun")
    with atomic_write(path) as fh:
        fh.write(json.dumps(source, indent=2, sort_keys=True) + "\n")


@dataclass
class StudyResult:
    labels: tuple[str, ...]
    seeds: tuple[int, ...]
    radii: tuple[int, ...]
    checkpoints: dict = field(default_factory=dict)  # (label, seed) -> path
    robustness: dict = field(default_factory=dict)  # (label, seed) -> MetricsReport
    ra: dict = field(default_factory=dict)  # (label, seed, mode) -> RACurve
    clean_accuracy: dict = field(default_factory=dict)  # (label, seed) -> float

    def robustness_mean(self, label: str) -> float:
        return float(np.mean([self.robustness[(label, s)].mean for s in self.seeds]))

    def ra_mean(self, label: str, mode: str) -> list[tuple[int, float]]:
        """Per-radius accuracy averaged over seeds."""
        out = []
        for i, r in enumerate(self.radii):
            vals = [self.ra[(label, s, mode)].points[i][1] for s in self.seeds]
            out.append((r, float(np.mean(vals))))
        return out

    def to_json(self) -> str:
        doc = {
            "seeds": list(self.seeds),
            "radii": list(self.radii),
            "mean_robustness_accuracy": {
                label: self.robustness_mean(label) for label in self.labels},
            "clean_accuracy": {
                f"{label}-seed{seed}": acc
                for (label, seed), acc in sorted(self.clean_accuracy.items())},
            "ra_mean": {
                f"{label}-{mode}": [[r, a] for r, a in self.ra_mean(label, mode)]
                for label in self.labels for mode in ("low", "high")},
        }
        return json.dumps(doc, indent=2, sort_keys=True)


def run_study(data: dict[str, str], root: str, epochs: int = 20,
              seeds=DEFAULT_SEEDS, methods=DEFAULT_METHODS,
              radii=DEFAULT_RADII, corruption_seed: int = 0,
              echo=None) -> StudyResult:
    """Train the stable, evaluate the corruption grid and attenuation sweep.

    Everything lands under `root`: one run directory per (method, seed), the
    corrupted sets under corrupted/, and study.json + RA-curve SVGs on top.
    The whole study is checked first, as `ensure_run` checks a cell: the
    parser refuses a bad seed or epoch count. An empty `seeds` or `methods`,
    a label named twice with different methods, radii that `check_radii`
    refuses or a corruption seed that `CorruptionSpec` refuses raise
    ValueError. The plan's one write, corrupted/source.json, comes last.
    The plan hashes each data file once, for every cell's digest and the
    grid's source.
    """
    seeds, methods, radii = tuple(seeds), tuple(methods), tuple(radii)
    for what, items in (("seeds", seeds), ("methods", methods)):
        if not items:
            raise ValueError(f"run_study: {what} is empty")
    by_label = {}  # a label names one run directory per seed: a repeated one is one cell
    for m in methods:
        if by_label.setdefault(m.label, m) != m:
            raise ValueError(f"run_study: label {m.label!r} names {by_label[m.label]} and {m}")
    sha256 = functools.cache(sha256_file)
    cells = [_Cell.plan(m, seed, epochs, data, root, sha256)
             for m in by_label.values() for seed in dict.fromkeys(seeds)]
    _, (_, h, w) = image_file_shape(data["test_images"], "idx")
    check_radii(list(radii), h, w)
    specs = [CorruptionSpec(kind, sev, corruption_seed) for kind in KINDS for sev in SEVERITIES]
    corr_dir = os.path.join(root, "corrupted")
    _pin_grid_source(corr_dir, data, corruption_seed, sha256)

    result = StudyResult(labels=tuple(m.label for m in methods), seeds=seeds, radii=radii)
    models: dict[tuple[str, int], Model] = {}
    for cell in cells:
        if cell.loaded is None:
            cell.train(echo)
        key = (cell.label, cell.cfg.seed)
        result.checkpoints[key] = cell.ckpt
        models[key] = (cell.loaded or load_checkpoint(cell.ckpt, momenta=False)).build_model()
    test = load_idx(data["test_images"], data["test_labels"], name="test",
                    classes=cell.cfg.classes)

    for key, model in models.items():
        result.clean_accuracy[key] = accuracy(model, test)

    # corruption grid: cells are rendered once and cached on disk; every model
    # scores each cell before the next one loads
    base = os.path.basename(data["test_images"])
    paths = {}
    for spec in specs:
        if echo and spec.severity == SEVERITIES[0]:
            echo(f"corruption {spec.kind}")
        paths[(spec.kind, spec.severity)] = ensure_corrupted_set(test, corr_dir, base, spec)
    stable = list(models.values())
    for (label, seed), report in zip(models, robustness_accuracy(stable, paths)):
        report.model_id = f"{label}-seed{seed}"
        result.robustness[(label, seed)] = report

    # attenuation sweep: each filtered batch is built once, shared by all models
    for mode in ("low", "high"):
        if echo:
            echo(f"attenuation {mode} r={','.join(str(r) for r in radii)}")
        for (label, seed), curve in zip(models, ra_curve(stable, test, mode, radii)):
            curve.model_id = f"{label}-seed{seed}"
            result.ra[(label, seed, mode)] = curve

    with atomic_write(os.path.join(root, "study.json")) as fh:
        fh.write(result.to_json() + "\n")
    curves = [RACurve(mode=mode, points=result.ra_mean(label, mode), model_id=label)
              for label in result.labels for mode in ("low", "high")]
    write_ra_curves_svg(curves, os.path.join(root, "ra_curves.svg"))
    return result
