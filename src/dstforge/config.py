"""Run configuration: INI-style sections [data], [train], [dst], [output].

Keys mirror the usual recipe names (lr, bs, epochs, wd, momentum, lrs,
sparsity_dist, delta_t, p). Unknown keys are rejected by name; paths
are checked at parse time; dataset sizes are read from the file headers so the
step counts of every schedule are fixed before training starts.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass

from .data import DataError, guess_idx_labels_path, image_file_shape, sha256_file
from .models import ModelSpec, parse_model_spec
from .optim import LrSchedule
from .schedulers import DstConfig
from .sparsity import ALLOCATORS, DENSE, SparsityAllocation


class ConfigError(Exception):
    pass


# [dst] key -> (DstConfig field, cast). Only the keys a config sets are passed
# on, so DstConfig holds the one copy of every default.
_DST_FIELDS = {
    "method": ("method", str),
    "sparsity": ("sparsity", float),
    "delta_t": ("delta_t", int),
    "p": ("p0", float),
    "soft_bound": ("soft_bound", float),
    "init_density": ("init_density", float),
    "horizon": ("horizon", int),
    "start_step": ("start_step", int),
    "stop_step": ("stop_step", int),
    "mest_lambda": ("mest_lambda", float),
}
_ALLOWED = {
    "data": {"dataset", "format", "train", "train_labels", "test", "test_labels", "classes"},
    "train": {"model", "epochs", "seed", "lr", "bs", "lrs", "wd", "momentum", "eval_every"},
    "dst": {*_DST_FIELDS, "sparsity_dist", "dense_overrides"},
    "output": {"dir", "save_every"},
}
_REQUIRED = {"data": {"dataset", "train", "test"}, "train": {"model", "epochs", "seed"},
             "output": {"dir"}}


@dataclass(frozen=True)
class RunConfig:
    dataset: str
    fmt: str
    train_images: tuple[str, ...]
    test_images: str
    classes: int
    model: ModelSpec
    epochs: int
    batch_size: int
    lr: float
    lrs: str
    weight_decay: float
    momentum: float
    seed: int
    eval_every: int
    dst: DstConfig
    sparsity_dist: str
    dense_overrides: tuple[str, ...]
    out_dir: str
    save_every: int
    n_train: int
    n_test: int
    train_labels: tuple[str, ...] = ()
    test_labels: str | None = None

    @property
    def steps_per_epoch(self) -> int:
        return self.n_train // self.batch_size

    @property
    def total_steps(self) -> int:
        return self.steps_per_epoch * self.epochs

    def lr_schedule(self) -> LrSchedule:
        return LrSchedule(kind=self.lrs, base_lr=self.lr, total_steps=self.total_steps,
                          steps_per_epoch=self.steps_per_epoch if self.lrs == "step" else 0)

    def allocation(self) -> SparsityAllocation:
        """The run's per-layer budget, DENSE for dense. Every dense override
        must name a layer of the model, whatever the method. `parse_config`
        calls this, so a config it returns always allocates."""
        desc = self.model.descriptor()
        names = [s.name for s in desc.layers]
        unknown = [name for name in self.dense_overrides if name not in names]
        if unknown:
            raise ConfigError(f"[dst] dense_overrides: {self.model.to_string()} has no layer "
                              f"{', '.join(unknown)}; its layers are {', '.join(sorted(names))}")
        if self.dst.method == "dense":
            return DENSE
        try:
            return ALLOCATORS[self.sparsity_dist](desc, self.dst.sparsity, self.dense_overrides)
        except ValueError as e:
            raise ConfigError(f"[dst] {e}") from None

    def digest(self) -> str:
        """SHA-256 of every field outside [output], each data file entering by
        the SHA-256 of its content, not its path: the identity of a run."""
        doc = asdict(self)
        del doc["out_dir"], doc["save_every"]
        doc["train_images"] = [sha256_file(p) for p in self.train_images]
        doc["train_labels"] = [sha256_file(p) for p in self.train_labels]
        doc["test_images"] = sha256_file(self.test_images)
        doc["test_labels"] = self.test_labels and sha256_file(self.test_labels)
        return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _shape_text(shape: tuple[int, ...]) -> str:
    return "x".join(str(d) for d in shape)


def _peek_images(paths: tuple[str, ...], fmt: str) -> tuple[int, tuple[int, int, int]]:
    """Image count of `paths` and their (c, h, w), read from the file headers
    (IDX) or sizes (CIFAR); every file must hold the same image shape."""
    total, shape = 0, None
    for p in paths:
        n, s = image_file_shape(p, fmt)
        if shape is not None and s != shape:
            raise ConfigError(f"[data] {p} holds {_shape_text(s)} images, "
                              f"the files before it {_shape_text(shape)}")
        total, shape = total + n, s
    return total, shape


def _get(cp, section, key, default=None):
    if cp.has_option(section, key):
        return cp.get(section, key).strip()
    return default


def _typed(section, key, raw, cast):
    try:
        return cast(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}") from None


def _derive_format(dataset: str) -> str | None:
    low = dataset.lower()
    if "cifar" in low:
        return "cifar"
    if "mnist" in low or "idx" in low:
        return "idx"
    return None


def parse_config(text: str, base_dir: str = ".") -> RunConfig:
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as e:
        raise ConfigError(f"malformed config: {e}") from None

    if cp.defaults():
        raise ConfigError(f"unknown section [DEFAULT] with keys {sorted(cp.defaults())}")
    for section in cp.sections():
        if section not in _ALLOWED:
            raise ConfigError(f"unknown section [{section}]")
        unknown = set(cp.options(section)) - _ALLOWED[section]
        if unknown:
            raise ConfigError(f"unknown key(s) in [{section}]: {', '.join(sorted(unknown))}")
    for section, keys in _REQUIRED.items():
        if not cp.has_section(section):
            raise ConfigError(f"missing required section [{section}]")
        missing = keys - set(cp.options(section))
        if missing:
            raise ConfigError(f"missing required key(s) in [{section}]: {', '.join(sorted(missing))}")

    dataset = _get(cp, "data", "dataset")
    fmt = _get(cp, "data", "format") or _derive_format(dataset)
    if fmt not in ("idx", "cifar"):
        raise ConfigError(f"cannot derive data format from dataset {dataset!r}; "
                          f"set [data] format = idx|cifar")

    def paths_of(raw: str) -> tuple[str, ...]:
        return tuple(os.path.normpath(os.path.join(base_dir, p.strip()))
                     for p in raw.split(",") if p.strip())

    train_images = paths_of(_get(cp, "data", "train"))
    test_images = paths_of(_get(cp, "data", "test"))
    if len(test_images) != 1:
        raise ConfigError("[data] test must name exactly one file")
    train_labels = paths_of(_get(cp, "data", "train_labels") or "")
    test_labels_raw = _get(cp, "data", "test_labels")
    test_labels = paths_of(test_labels_raw)[0] if test_labels_raw else None
    if train_labels and len(train_labels) != len(train_images):
        raise ConfigError(f"[data] train names {len(train_images)} file(s) but "
                          f"train_labels names {len(train_labels)}")
    if fmt == "idx":  # the labels files the loader would guess, named so the digest reads them
        train_labels = train_labels or tuple(map(guess_idx_labels_path, train_images))
        test_labels = test_labels or guess_idx_labels_path(test_images[0])
    for p in filter(None, (*train_images, test_images[0], *train_labels, test_labels)):
        if not os.path.exists(p):
            raise ConfigError(f"referenced path does not exist: {p}")

    classes = _typed("data", "classes", _get(cp, "data", "classes", "10"), int)

    try:
        model = parse_model_spec(_get(cp, "train", "model"))
    except ValueError as e:
        raise ConfigError(f"[train] model: {e}") from None
    epochs = _typed("train", "epochs", _get(cp, "train", "epochs"), int)
    seed = _typed("train", "seed", _get(cp, "train", "seed"), int)
    if seed < 0:
        raise ConfigError(f"[train] seed must be >= 0, got {seed}")
    lr = _typed("train", "lr", _get(cp, "train", "lr", "0.1"), float)
    bs = _typed("train", "bs", _get(cp, "train", "bs", "100"), int)
    lrs = _get(cp, "train", "lrs", "cosine")
    if lrs not in ("cosine", "step"):
        raise ConfigError(f"[train] lrs must be cosine or step, got {lrs!r}")
    wd = _typed("train", "wd", _get(cp, "train", "wd", "5e-4"), float)
    momentum = _typed("train", "momentum", _get(cp, "train", "momentum", "0.9"), float)
    eval_every = _typed("train", "eval_every", _get(cp, "train", "eval_every", "1"), int)
    if epochs < 1 or bs < 1 or eval_every < 1:
        raise ConfigError("[train] epochs, bs and eval_every must be >= 1")
    if not (0 <= lr < math.inf and 0 <= wd < math.inf and 0 <= momentum < 1):
        raise ConfigError(f"[train] lr and wd must be finite and >= 0 and momentum in [0, 1), got "
                          f"lr = {lr}, wd = {wd}, momentum = {momentum}")

    try:
        n_train, image_shape = _peek_images(train_images, fmt)
        n_test, test_shape = _peek_images(test_images, fmt)
    except (DataError, OSError) as e:
        raise ConfigError(f"[data] train/test: cannot read dataset sizes as {fmt}: {e}") from None
    if n_train < bs:
        raise ConfigError(f"[train] bs: batch size {bs} exceeds training set size {n_train}")
    if n_test == 0:
        raise ConfigError(f"[data] test {test_images[0]} holds no images")
    if test_shape != image_shape:
        raise ConfigError(f"[data] train images are {_shape_text(image_shape)} but test "
                          f"images are {_shape_text(test_shape)}")
    c, h, w = image_shape
    fits = model.dims[0] == c * h * w if model.kind == "mlp" else model.input_shape == image_shape
    if not fits:
        raise ConfigError(f"[train] model {model.to_string()} does not take the "
                          f"{_shape_text(image_shape)} images of [data]")
    if model.classes != classes:
        raise ConfigError(f"[train] model {model.to_string()} has {model.classes} classes "
                          f"but [data] classes = {classes}")

    sparsity_dist = _get(cp, "dst", "sparsity_dist", "uniform")
    if sparsity_dist not in ALLOCATORS:
        raise ConfigError(f"[dst] sparsity_dist must be {' or '.join(ALLOCATORS)}, got {sparsity_dist!r}")
    dense_overrides = tuple(
        s.strip() for s in (_get(cp, "dst", "dense_overrides") or "").split(",") if s.strip())
    dst_kwargs = {field: _typed("dst", key, raw, cast)
                  for key, (field, cast) in _DST_FIELDS.items()
                  if (raw := _get(cp, "dst", key)) is not None}
    try:
        dst = DstConfig(total_steps=n_train // bs * epochs, **dst_kwargs)
    except ValueError as e:
        # DstConfig's messages open with its field's name; a config names its key
        field, _, rest = str(e).partition(" ")
        key = next((k for k, (f, _) in _DST_FIELDS.items() if f == field), field)
        raise ConfigError(f"[dst] {key} {rest}") from None

    out_dir = os.path.normpath(os.path.join(base_dir, _get(cp, "output", "dir")))
    existing = out_dir  # the deepest part of the path that exists must be a directory
    while existing and not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if existing and not os.path.isdir(existing):
        raise ConfigError(f"[output] dir {out_dir}: {existing} exists and is not a directory")
    save_every = _typed("output", "save_every", _get(cp, "output", "save_every", "0"), int)
    if save_every < 0:
        raise ConfigError("[output] save_every must be >= 0")

    cfg = RunConfig(
        dataset=dataset, fmt=fmt, train_images=train_images, test_images=test_images[0],
        classes=classes, model=model, epochs=epochs, batch_size=bs, lr=lr, lrs=lrs,
        weight_decay=wd, momentum=momentum, seed=seed, eval_every=eval_every, dst=dst,
        sparsity_dist=sparsity_dist, dense_overrides=dense_overrides, out_dir=out_dir,
        save_every=save_every, n_train=n_train, n_test=n_test,
        train_labels=train_labels, test_labels=test_labels,
    )
    cfg.allocation()
    return cfg


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    return parse_config(text, base_dir=os.path.dirname(os.path.abspath(path)))
