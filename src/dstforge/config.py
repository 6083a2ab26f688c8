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
import os
import struct
from dataclasses import asdict, dataclass

from .data import CIFAR_RECORD, IDX_IMAGES_MAGIC, DataError
from .models import ModelSpec, parse_model_spec
from .optim import LrSchedule
from .schedulers import DstConfig


class ConfigError(Exception):
    pass


_ALLOWED = {
    "data": {"dataset", "format", "train", "train_labels", "test", "test_labels", "classes"},
    "train": {"model", "epochs", "seed", "lr", "bs", "lrs", "wd", "momentum", "eval_every"},
    "dst": {"method", "sparsity", "sparsity_dist", "delta_t", "p", "soft_bound",
            "init_density", "horizon", "start_step", "stop_step", "mest_lambda",
            "dense_overrides"},
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

    def digest(self) -> str:
        doc = asdict(self)
        doc["model"] = self.model.to_string()
        return hashlib.sha256(json.dumps(doc, sort_keys=True, default=str).encode()).hexdigest()


def _peek_idx_count(path: str) -> int:
    with open(path, "rb") as fh:
        head = fh.read(16)
    if len(head) < 16:
        raise DataError(f"{path}: truncated IDX header ({len(head)} bytes)")
    magic, n, _, _ = struct.unpack(">IIII", head)
    if magic != IDX_IMAGES_MAGIC:
        raise DataError(f"{path}: bad IDX image magic 0x{magic:08x}")
    return n


def _peek_cifar_count(path: str) -> int:
    size = os.path.getsize(path)
    if size == 0 or size % CIFAR_RECORD:
        raise DataError(f"{path}: size {size} is not a multiple of {CIFAR_RECORD}-byte records")
    return size // CIFAR_RECORD


def _count_examples(paths: tuple[str, ...], fmt: str) -> int:
    if fmt == "idx":
        return sum(_peek_idx_count(p) for p in paths)
    return sum(_peek_cifar_count(p) for p in paths)


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
    for p in (*train_images, test_images[0], *train_labels,
              *((test_labels,) if test_labels else ())):
        if not os.path.exists(p):
            raise ConfigError(f"referenced path does not exist: {p}")

    classes = _typed("data", "classes", _get(cp, "data", "classes", "10"), int)

    try:
        model = parse_model_spec(_get(cp, "train", "model"))
    except ValueError as e:
        raise ConfigError(f"[train] model: {e}") from None
    epochs = _typed("train", "epochs", _get(cp, "train", "epochs"), int)
    seed = _typed("train", "seed", _get(cp, "train", "seed"), int)
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

    try:
        n_train = _count_examples(train_images, fmt)
        n_test = _count_examples((test_images[0],), fmt)
    except (DataError, OSError) as e:
        raise ConfigError(f"cannot read dataset sizes: {e}") from None
    if n_train < bs:
        raise ConfigError(f"batch size {bs} exceeds training set size {n_train}")

    method = "dense"
    sparsity = 0.0
    sparsity_dist = "uniform"
    dense_overrides: tuple[str, ...] = ()
    dst_kwargs = {}
    if cp.has_section("dst"):
        method = _get(cp, "dst", "method", "dense")
        sparsity = _typed("dst", "sparsity", _get(cp, "dst", "sparsity", "0"), float)
        sparsity_dist = _get(cp, "dst", "sparsity_dist", "uniform")
        if sparsity_dist not in ("uniform", "erk"):
            raise ConfigError(f"[dst] sparsity_dist must be uniform or erk, got {sparsity_dist!r}")
        dense_overrides = tuple(
            s.strip() for s in (_get(cp, "dst", "dense_overrides") or "").split(",") if s.strip())
        dst_kwargs["delta_t"] = _typed("dst", "delta_t", _get(cp, "dst", "delta_t", "500"), int)
        dst_kwargs["p0"] = _typed("dst", "p", _get(cp, "dst", "p", "0.1"), float)
        for key, cast in (("soft_bound", float), ("horizon", int), ("stop_step", int)):
            raw = _get(cp, "dst", key)
            if raw is not None:
                dst_kwargs[key] = _typed("dst", key, raw, cast)
        dst_kwargs["init_density"] = _typed(
            "dst", "init_density", _get(cp, "dst", "init_density", "0.8"), float)
        dst_kwargs["start_step"] = _typed(
            "dst", "start_step", _get(cp, "dst", "start_step", "0"), int)
        dst_kwargs["mest_lambda"] = _typed(
            "dst", "mest_lambda", _get(cp, "dst", "mest_lambda", "1.0"), float)

    steps_per_epoch = n_train // bs
    try:
        dst = DstConfig(method=method, sparsity=sparsity,
                        total_steps=steps_per_epoch * epochs, **dst_kwargs)
    except ValueError as e:
        raise ConfigError(f"[dst] {e}") from None

    out_dir = os.path.normpath(os.path.join(base_dir, _get(cp, "output", "dir")))
    save_every = _typed("output", "save_every", _get(cp, "output", "save_every", "0"), int)

    return RunConfig(
        dataset=dataset, fmt=fmt, train_images=train_images, test_images=test_images[0],
        classes=classes, model=model, epochs=epochs, batch_size=bs, lr=lr, lrs=lrs,
        weight_decay=wd, momentum=momentum, seed=seed, eval_every=eval_every, dst=dst,
        sparsity_dist=sparsity_dist, dense_overrides=dense_overrides, out_dir=out_dir,
        save_every=save_every, n_train=n_train, n_test=n_test,
        train_labels=train_labels, test_labels=test_labels,
    )


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    return parse_config(text, base_dir=os.path.dirname(os.path.abspath(path)))
