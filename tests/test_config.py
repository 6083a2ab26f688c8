"""Config grammar: sections, defaults, validation, and derived quantities."""

import os
import re
import shutil
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import color_blobs, make_blob_set, toy_config, write_cifar, write_idx_pair

from dstforge.config import _ALLOWED, _DST_FIELDS, ConfigError, load_config, parse_config
from dstforge.schedulers import METHODS, DstConfig
from dstforge.train import run_train


def test_minimal_config_defaults(idx_dir, tmp_path):
    text = f"""
[data]
dataset = blobs-idx
train = {idx_dir}/train-images-idx3-ubyte
test = {idx_dir}/t10k-images-idx3-ubyte

[train]
model = mlp:144-64-10
epochs = 2
seed = 7

[output]
dir = {tmp_path}/run
"""
    cfg = parse_config(text)
    assert cfg.fmt == "idx"  # derived from the dataset name
    assert cfg.classes == 10
    assert cfg.lr == pytest.approx(0.1)
    assert cfg.batch_size == 100
    assert cfg.lrs == "cosine"
    assert cfg.weight_decay == pytest.approx(5e-4)
    assert cfg.momentum == pytest.approx(0.9)
    assert cfg.eval_every == 1
    assert cfg.save_every == 0
    assert cfg.dst.method == "dense"
    assert cfg.n_train == 1500
    assert cfg.n_test == 400
    assert cfg.steps_per_epoch == 15
    assert cfg.total_steps == 30
    assert cfg.model.to_string() == "mlp:144-64-10"


def test_dst_section_defaults(idx_dir, tmp_path):
    cfg = parse_config(toy_config(idx_dir, str(tmp_path / "o"), method="set",
                                  sparsity=0.5))
    assert cfg.dst.method == "set"
    assert cfg.dst.sparsity == pytest.approx(0.5)
    assert cfg.dst.p0 == pytest.approx(0.1)
    assert cfg.sparsity_dist == "erk"
    assert cfg.dst.total_steps == cfg.total_steps


def test_dst_delta_t_default_is_500(idx_dir, tmp_path):
    text = toy_config(idx_dir, str(tmp_path / "o"), method="set", sparsity=0.5)
    text = "\n".join(l for l in text.splitlines() if not l.startswith("delta_t"))
    cfg = parse_config(text)
    assert cfg.dst.delta_t == 500


def test_unknown_section_rejected(idx_dir, tmp_path):
    text = toy_config(idx_dir, str(tmp_path / "o")) + "\n[tuning]\nx = 1\n"
    with pytest.raises(ConfigError, match="tuning"):
        parse_config(text)


def test_unknown_key_rejected(idx_dir, tmp_path):
    text = toy_config(idx_dir, str(tmp_path / "o")) + "\n[dst]\nmethod = set\nsparsities = 0.5\n"
    with pytest.raises(ConfigError, match="sparsities"):
        parse_config(text)


def test_missing_required_key(idx_dir, tmp_path):
    text = toy_config(idx_dir, str(tmp_path / "o"))
    text = "\n".join(l for l in text.splitlines() if not l.startswith("model"))
    with pytest.raises(ConfigError, match="model"):
        parse_config(text)


def test_missing_required_section():
    with pytest.raises(ConfigError, match=r"\[data\]"):
        parse_config("[train]\nmodel = mlp:4-2\nepochs = 1\nseed = 0\n[output]\ndir = o\n")


def test_nonexistent_path_rejected(idx_dir, tmp_path):
    text = toy_config(idx_dir, str(tmp_path / "o")).replace(
        f"{idx_dir}/t10k-images-idx3-ubyte", f"{idx_dir}/missing-images-idx3-ubyte")
    with pytest.raises(ConfigError, match="does not exist"):
        parse_config(text)


def test_full_sparsity_rejected(idx_dir, tmp_path):
    with pytest.raises(ConfigError, match="sparsity"):
        parse_config(toy_config(idx_dir, str(tmp_path / "o"), method="set", sparsity=1.0))


def test_bad_numeric_value(idx_dir, tmp_path):
    text = toy_config(idx_dir, str(tmp_path / "o"))
    for old, new, key in [("epochs = 2", "epochs = two", "epochs"),
                          ("lr = 0.1", "lr = -0.1", "lr"),
                          ("wd = 1e-4", "wd = -1e-4", "wd"),
                          ("momentum = 0.9", "momentum = -0.1", "momentum"),
                          ("momentum = 0.9", "momentum = 1.0", "momentum"),
                          ("momentum = 0.9", "momentum = nan", "momentum"),
                          ("lr = 0.1", "lr = inf", "lr = inf"),
                          ("wd = 1e-4", "wd = inf", "wd = inf")]:
        with pytest.raises(ConfigError, match=key):
            parse_config(text.replace(old, new))
    assert parse_config(text.replace("lr = 0.1", "lr = 0")).lr == 0.0


def test_bad_lrs_value(idx_dir, tmp_path):
    text = toy_config(idx_dir, str(tmp_path / "o")).replace("lrs = step", "lrs = linear")
    with pytest.raises(ConfigError, match="lrs"):
        parse_config(text)


def test_bad_model_spec(idx_dir, tmp_path):
    text = toy_config(idx_dir, str(tmp_path / "o")).replace(
        "model = mlp:144-64-10", "model = transformer:12")
    with pytest.raises(ConfigError, match="model"):
        parse_config(text)


def test_batch_larger_than_dataset(idx_dir, tmp_path):
    text = toy_config(idx_dir, str(tmp_path / "o")).replace("bs = 50", "bs = 5000")
    with pytest.raises(ConfigError, match="batch"):
        parse_config(text)


def test_unknown_dst_sched_rejected(idx_dir, tmp_path):
    # [dst] sched is gone: even its one former value is an unknown key
    for value in ("cosine", "polynomial"):
        text = toy_config(idx_dir, str(tmp_path / "o"), method="set", sparsity=0.5,
                          extra_dst=f"sched = {value}")
        with pytest.raises(ConfigError, match=r"unknown key\(s\) in \[dst\]: sched"):
            parse_config(text)


def test_bad_sparsity_dist(idx_dir, tmp_path):
    text = toy_config(idx_dir, str(tmp_path / "o"), method="set", sparsity=0.5).replace(
        "sparsity_dist = erk", "sparsity_dist = pyramid")
    with pytest.raises(ConfigError, match="sparsity_dist"):
        parse_config(text)


def test_explicit_format_beats_heuristic(idx_dir, tmp_path):
    text = toy_config(idx_dir, str(tmp_path / "o"))
    cfg = parse_config(text)
    assert cfg.fmt == "idx"
    unknowable = text.replace("dataset = blobs", "dataset = mystery").replace(
        "format = idx\n", "")
    with pytest.raises(ConfigError, match="format"):
        parse_config(unknowable)


def test_digest_stable_and_sensitive(idx_dir, tmp_path):
    """The run digest covers every field outside [output], each data file by
    its content: moving the data or the output keeps it, one changed byte or
    any other setting changes it."""
    def digest(text):
        return parse_config(text).digest()

    kw = dict(method="set", sparsity=0.5)
    base = toy_config(idx_dir, str(tmp_path / "o"), **kw)
    a = digest(base)
    assert len(a) == 64 and digest(base) == a
    data = tmp_path / "moved"
    shutil.copytree(idx_dir, data)
    assert digest(toy_config(str(data), str(tmp_path / "p"), save_every=7, **kw)) == a
    edits = [
        toy_config(idx_dir, str(tmp_path / "o"), seed=2, **kw),
        toy_config(idx_dir, str(tmp_path / "o"), lr=0.05, **kw),
        toy_config(idx_dir, str(tmp_path / "o"), epochs=3, **kw),
        toy_config(idx_dir, str(tmp_path / "o"), delta_t=16, **kw),
        toy_config(idx_dir, str(tmp_path / "o"), model="mlp:144-32-10", **kw),
        toy_config(idx_dir, str(tmp_path / "o"), extra_dst="dense_overrides = fc2", **kw),
        toy_config(idx_dir, str(tmp_path / "o"), method="set", sparsity=0.6),
        toy_config(idx_dir, str(tmp_path / "o")),
        base.replace("sparsity_dist = erk", "sparsity_dist = uniform"),
        base.replace("p = 0.1", "p = 0.2"),
        base.replace("bs = 50", "bs = 60"),
        base.replace("wd = 1e-4", "wd = 2e-4"),
        base.replace("momentum = 0.9", "momentum = 0.8"),
        base.replace("lrs = step", "lrs = cosine"),
        base.replace("dataset = blobs", "dataset = blobs2"),
        base.replace("[train]", "[train]\neval_every = 2"),
    ]
    digests = {digest(text) for text in edits}
    assert len(digests) == len(edits) and a not in digests
    for name in ("train-images-idx3-ubyte", "train-labels-idx1-ubyte",
                 "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"):
        path = data / name
        whole = path.read_bytes()
        path.write_bytes(whole[:-1] + bytes([whole[-1] ^ 1]))
        assert digest(toy_config(str(data), str(tmp_path / "p"), **kw)) != a, name
        path.write_bytes(whole)


def test_labels_found_beside_idx_images_enter_the_digest(idx_dir, tmp_path):
    data = tmp_path / "data"
    shutil.copytree(idx_dir, data)
    text = "\n".join(l for l in toy_config(str(data), str(tmp_path / "o")).splitlines()
                     if not l.startswith(("train_labels", "test_labels")))
    cfg = parse_config(text)
    assert cfg.train_labels == (str(data / "train-labels-idx1-ubyte"),)
    assert cfg.test_labels == str(data / "t10k-labels-idx1-ubyte")
    before = cfg.digest()
    labels = data / "t10k-labels-idx1-ubyte"
    whole = labels.read_bytes()
    labels.write_bytes(whole[:-1] + bytes([(whole[-1] + 1) % 10]))
    assert parse_config(text).digest() != before


def test_load_config_resolves_relative_paths(idx_dir, tmp_path):
    cfg_path = tmp_path / "run.ini"
    rel = toy_config(idx_dir, "out").replace(f"{idx_dir}/", f"{idx_dir}/")
    cfg_path.write_text(rel)
    cfg = load_config(str(cfg_path))
    assert cfg.out_dir == str(tmp_path / "out")


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        load_config("/nonexistent/run.ini")


def test_dst_extras_parse(idx_dir, tmp_path):
    text = toy_config(idx_dir, str(tmp_path / "o"), method="mest_g", sparsity=0.5,
                      extra_dst="soft_bound = 0.08\nmest_lambda = 2.0\nstop_step = 20")
    cfg = parse_config(text)
    assert cfg.dst.soft_bound == pytest.approx(0.08)
    assert cfg.dst.mest_lambda == pytest.approx(2.0)
    assert cfg.dst.stop_step == 20
    text = toy_config(idx_dir, str(tmp_path / "o"), method="granet_r", sparsity=0.5,
                      extra_dst="init_density = 0.9\nhorizon = 10\nstart_step = 5")
    cfg = parse_config(text)
    assert cfg.dst.init_density == pytest.approx(0.9)
    assert cfg.dst.granet_horizon == 10
    assert cfg.dst.start_step == 5


def test_dense_overrides_parse(idx_dir, tmp_path):
    text = toy_config(idx_dir, str(tmp_path / "o"), method="set", sparsity=0.5,
                      model="mlp:144-64-32-10", extra_dst="dense_overrides = fc2, fc3")
    cfg = parse_config(text)
    assert cfg.dense_overrides == ("fc2", "fc3")
    # mlp:144-64-10 has no fc3: refused at parse time, not once training starts
    with pytest.raises(ConfigError, match=r"\[dst\] dense_overrides: .* no layer fc3"):
        parse_config(toy_config(idx_dir, str(tmp_path / "o"), method="set", sparsity=0.5,
                                extra_dst="dense_overrides = fc1, fc3"))


def test_multi_file_train_counts(idx_dir, tmp_path):
    text = toy_config(idx_dir, str(tmp_path / "o")).replace(
        f"train = {idx_dir}/train-images-idx3-ubyte",
        f"train = {idx_dir}/train-images-idx3-ubyte, {idx_dir}/t10k-images-idx3-ubyte")
    text = "\n".join(l for l in text.splitlines() if not l.startswith("train_labels"))
    cfg = parse_config(text)
    assert cfg.n_train == 1900


def test_dst_keys_map_onto_every_schedule_field_and_leave_the_defaults_to_it(idx_dir, tmp_path):
    assert sorted(f for f, _ in _DST_FIELDS.values()) == sorted(
        f.name for f in fields(DstConfig) if f.name != "total_steps")
    text = toy_config(idx_dir, str(tmp_path / "o")) + "\n[dst]\nmethod = set\nsparsity = 0.5\n"
    cfg = parse_config(text)
    assert cfg.dst == DstConfig(method="set", sparsity=0.5, total_steps=cfg.total_steps)
    assert cfg.sparsity_dist == "uniform"


@pytest.fixture(scope="module")
def other_sides(tmp_path_factory) -> str:
    """IDX pairs of 14x14 and 16x16 blobs, beside the 12x12 task of idx_dir."""
    d = str(tmp_path_factory.mktemp("sides"))
    for side in (14, 16):
        write_idx_pair(d, f"side{side}", *make_blob_set(60, seed=3, side=side))
    return d


def test_train_and_test_images_must_share_a_shape(idx_dir, other_sides, tmp_path):
    text = toy_config(idx_dir, str(tmp_path / "o"))
    other_test = text.replace(f"{idx_dir}/t10k-", f"{other_sides}/side14-")
    with pytest.raises(ConfigError, match="train images are 1x12x12 but test images are 1x14x14"):
        parse_config(other_test)
    mixed_train = "\n".join(l for l in text.splitlines() if not l.startswith("train_labels"))
    mixed_train = mixed_train.replace(
        f"train = {idx_dir}/train-images-idx3-ubyte",
        f"train = {idx_dir}/train-images-idx3-ubyte, {other_sides}/side14-images-idx3-ubyte")
    with pytest.raises(ConfigError, match="holds 1x14x14 images"):
        parse_config(mixed_train)


def test_model_input_must_match_the_images(idx_dir, other_sides, tmp_path):
    text = toy_config(idx_dir, str(tmp_path / "o"))
    for model in ("mlp:100-64-10", "small_convnet:3x32x32-10", "small_convnet:1x16x16-10"):
        with pytest.raises(ConfigError, match=f"model {model} does not take the 1x12x12 images"):
            parse_config(text.replace("model = mlp:144-64-10", f"model = {model}"))
    for model in ("small_convnet:1x12x12-10", "mlp:144-10"):
        parse_config(text.replace("model = mlp:144-64-10", f"model = {model}"))
    # a convnet's sides must divide by 4, whatever the data
    side14 = text.replace(f"{idx_dir}/t10k-", f"{other_sides}/side14-").replace(
        f"{idx_dir}/train-", f"{other_sides}/side14-")
    with pytest.raises(ConfigError, match="divisible by 4"):
        parse_config(side14.replace("model = mlp:144-64-10", "model = small_convnet:1x14x14-10"))


def test_model_classes_must_match_data_classes(idx_dir, tmp_path):
    text = toy_config(idx_dir, str(tmp_path / "o")).replace(
        "model = mlp:144-64-10", "model = mlp:144-64-5")
    with pytest.raises(ConfigError, match="has 5 classes but \\[data\\] classes = 10"):
        parse_config(text)


def test_negative_save_every_rejected(idx_dir, tmp_path):
    with pytest.raises(ConfigError, match="save_every"):
        parse_config(toy_config(idx_dir, str(tmp_path / "o"), save_every=-1))


def test_negative_seed_rejected(idx_dir, tmp_path):
    # numpy seeds its generators from non-negative integers only
    with pytest.raises(ConfigError, match=r"\[train\] seed must be >= 0, got -1"):
        parse_config(toy_config(idx_dir, str(tmp_path / "o"), seed=-1))


@pytest.mark.parametrize("key", ["epochs", "bs", "eval_every"])
def test_a_train_count_below_one_is_refused_by_its_own_key(idx_dir, tmp_path, key):
    # one message named all three keys, whichever of them failed
    text = toy_config(idx_dir, str(tmp_path / "o")).replace("bs = 50\n", "bs = 50\neval_every = 1\n")
    text = re.sub(rf"^{key} = \d+$", f"{key} = 0", text, flags=re.M)
    with pytest.raises(ConfigError, match=rf"^\[train\] {key} must be >= 1, got 0$"):
        parse_config(text)


@pytest.mark.parametrize("key", ["soft_bound", "mest_lambda", "sparsity", "init_density"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_dst_floats_rejected_by_name(idx_dir, tmp_path, key, value):
    # a NaN soft_bound once passed its `< 0` check and mest_g trained dense
    extra = f"{key} = {value}" if key != "sparsity" else ""
    text = toy_config(idx_dir, str(tmp_path / "o"), method="mest_g", sparsity=0.5,
                      extra_dst=extra)
    if key == "sparsity":
        text = text.replace("sparsity = 0.5\n", f"sparsity = {value}\n")
    with pytest.raises(ConfigError, match=rf"\[dst\] {key} must be finite, got {value}"):
        parse_config(text)


@pytest.mark.parametrize("field", [f.name for f in fields(DstConfig)
                                   if f.type in ("float", "float | None")])
def test_dst_config_refuses_every_non_finite_float_field(field):
    for value in (float("nan"), float("inf"), float("-inf")):
        kwargs = {"method": "mest_g", "sparsity": 0.5, "total_steps": 100, field: value}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            DstConfig(**kwargs)


@pytest.mark.parametrize("value, message", [("2", r"must be in \[0, 1\], got 2.0"),
                                            ("nan", "must be finite, got nan")])
def test_refused_p_is_named_by_its_key(idx_dir, tmp_path, value, message):
    # the key `p` sets the field `p0`; a message naming `p0` names a key the
    # parser refuses
    text = toy_config(idx_dir, str(tmp_path / "o"), method="set", sparsity=0.5)
    text = text.replace("p = 0.1\n", f"p = {value}\n")
    with pytest.raises(ConfigError, match=rf"^\[dst\] p {message}$"):
        parse_config(text)


@pytest.mark.parametrize("method, sparsity, message", [
    ("sett", "0.5", f"method must be one of {', '.join(METHODS)}, got 'sett'"),
    ("dense", "0.5", "sparsity must be 0 for dense, got 0.5"),
    ("set", "1.5", "sparsity must be in (0, 1) for set, got 1.5"),
    ("rigl", "0", "sparsity must be in (0, 1) for rigl, got 0.0"),
], ids=["unknown-method", "dense-sparsity", "set-sparsity-1.5", "rigl-sparsity-0"])
def test_a_refused_method_or_sparsity_is_named_by_its_key(idx_dir, tmp_path, method, sparsity,
                                                          message):
    # the message once opened with the method's value: `[dst] set needs a sparsity ...`
    text = (toy_config(idx_dir, str(tmp_path / "o"))
            + f"\n[dst]\nmethod = {method}\nsparsity = {sparsity}\n")
    with pytest.raises(ConfigError, match=f"^{re.escape(f'[dst] {message}')}$"):
        parse_config(text)


# The config space: every key of config._ALLOWED over a blob task of 120
# training and 40 test images in one of four layouts: 12x12 IDX pairs or
# 3x32x32 CIFAR records, with the training images in one file or two. A key
# takes one of its valid values, or is left out; at most one key takes a value
# the parser must refuse. The hypothesis profile sets how many configs each
# property draws (see conftest.py).
_N_TRAIN = 120
_LAYERS = {
    "idx": {"mlp:144-16-10": ("fc1", "fc2"), "mlp:144-8-8-10": ("fc1", "fc2", "fc3"),
            "mlp:144-1-10": ("fc1", "fc2"),  # too small for ERK
            "small_convnet:1x12x12-10": ("conv1", "conv2", "fc1", "fc2")},
    "cifar": {"mlp:3072-16-10": ("fc1", "fc2"), "mlp:3072-1-10": ("fc1", "fc2"),
              "small_convnet:3x32x32-10": ("conv1", "conv2", "fc1", "fc2")},
}
_VALID = {
    ("data", "format"): ["idx"],
    ("data", "classes"): ["10"],
    ("train", "epochs"): ["1", "2"],
    ("train", "seed"): ["0", "5"],
    ("train", "lr"): ["0.01", "0.1"],
    ("train", "bs"): ["20", "24", "40", "60", "25", "35", "50", "70"],  # divide 120, then not
    ("train", "lrs"): ["cosine", "step"],
    ("train", "wd"): ["0", "5e-4"],
    ("train", "momentum"): ["0", "0.9"],
    ("train", "eval_every"): ["1", "2", "3"],
    ("dst", "sparsity_dist"): ["uniform", "erk"],
    ("dst", "delta_t"): ["1", "2", "5"],
    ("dst", "p"): ["0", "0.1", "0.5", "1"],
    ("dst", "soft_bound"): ["0", "0.05", "0.5"],
    ("dst", "init_density"): ["0.5", "0.95", "1"],
    ("dst", "horizon"): ["1", "4", "100"],
    ("dst", "start_step"): ["0", "2", "100"],
    ("dst", "stop_step"): ["0", "3", "100"],
    ("dst", "mest_lambda"): ["0", "1"],
    ("output", "save_every"): ["0", "1", "3"],
}
_REFUSED = {
    ("data", "format"): "cifar",
    ("data", "classes"): "12",
    ("train", "model"): "mlp:100-16-10",
    ("train", "epochs"): "0",
    ("train", "seed"): "-1",
    ("train", "lr"): "-0.1",
    ("train", "bs"): str(_N_TRAIN + 1),
    ("train", "lrs"): "linear",
    ("train", "wd"): "nan",
    ("train", "momentum"): "1",
    ("train", "eval_every"): "0",
    ("dst", "method"): "sgd",
    ("dst", "sparsity"): "1",
    ("dst", "sparsity_dist"): "random",
    ("dst", "delta_t"): "0",
    ("dst", "p"): "1.5",
    ("dst", "soft_bound"): "-0.1",
    ("dst", "init_density"): "0",
    ("dst", "horizon"): "0",
    ("dst", "start_step"): "-1",
    ("dst", "stop_step"): "-1",
    ("dst", "mest_lambda"): "-1",
    ("output", "dir"): None,  # a file
    ("output", "save_every"): "-1",
}


@pytest.fixture(scope="module")
def small_blobs(tmp_path_factory) -> dict[str, dict[str, str]]:
    """Layout ("idx", "idx2", "cifar" or "cifar2") -> its [data] paths. The
    IDX layouts name their labels files too; a config may leave them to be
    found beside the images."""
    d = str(tmp_path_factory.mktemp("small_blobs"))
    write_idx_pair(d, "t10k", *make_blob_set(40, seed=2))
    cifar_test = write_cifar(f"{d}/test.bin", *color_blobs(40, seed=2))
    layouts = {}
    for files, suffix in ((1, ""), (2, "2")):
        prefixes = [f"train{files}-{i}" for i in range(files)]
        gray = zip(*(np.array_split(a, files) for a in make_blob_set(_N_TRAIN, seed=1)))
        color = zip(*(np.array_split(a, files) for a in color_blobs(_N_TRAIN, seed=1)))
        for prefix, part in zip(prefixes, gray):
            write_idx_pair(d, prefix, *part)
        layouts["idx" + suffix] = {
            "train": ", ".join(f"{d}/{p}-images-idx3-ubyte" for p in prefixes),
            "train_labels": ", ".join(f"{d}/{p}-labels-idx1-ubyte" for p in prefixes),
            "test": f"{d}/t10k-images-idx3-ubyte", "test_labels": f"{d}/t10k-labels-idx1-ubyte"}
        layouts["cifar" + suffix] = {
            "train": ", ".join(write_cifar(f"{d}/{p}.bin", *part)
                               for p, part in zip(prefixes, color)),
            "test": cifar_test}
    return layouts


def _names_a_key(message: str) -> bool:
    """Whether a refusal names a section and one of its keys."""
    return any(f"[{section}]" in message and re.search(rf"\b{key}\b", message)
               for section, keys in _ALLOWED.items() for key in keys)


@st.composite
def config_texts(draw, layouts: dict, out_dir: str, faults: bool = True) -> tuple[str, bool]:
    """Config text and whether the parser must refuse it; no key takes a
    refused value unless `faults`."""
    layout = draw(st.sampled_from(sorted(layouts)))
    fmt = layout.rstrip("2")
    valid = {**_VALID, ("data", "format"): [fmt]}
    refused = {**_REFUSED, ("data", "format"): "cifar" if fmt == "idx" else "idx"}
    fault = draw(st.none() | st.sampled_from(sorted(refused))) if faults else None
    model = draw(st.sampled_from(sorted(_LAYERS[fmt])))
    method = draw(st.sampled_from(METHODS))
    paths = layouts[layout]
    values = {("data", "dataset"): f"blobs-{fmt}", ("data", "train"): paths["train"],
              ("data", "test"): paths["test"],
              ("train", "model"): model, ("train", "epochs"): "1", ("train", "seed"): "0",
              ("dst", "method"): method, ("output", "dir"): f"{out_dir}/run"}
    if "train_labels" in paths and draw(st.booleans()):
        values["data", "train_labels"] = paths["train_labels"]
        values["data", "test_labels"] = paths["test_labels"]
    if method != "dense":
        values["dst", "sparsity"] = draw(st.sampled_from(["0.1", "0.5", "0.9"]))
    overrides = draw(st.lists(st.sampled_from(_LAYERS[fmt][model] + (("fc9",) if faults else ())),
                              unique=True, max_size=3))
    if overrides:
        values["dst", "dense_overrides"] = ", ".join(overrides)
    for key, choices in valid.items():
        value = draw(st.none() | st.sampled_from(choices))
        if value is not None:
            values[key] = value
    if fault == ("output", "dir"):
        values[fault] = f"{out_dir}/taken"
        open(values[fault], "w").close()
    elif fault is not None:
        values[fault] = refused[fault]
    text = ""
    for section in _ALLOWED:
        lines = [f"{key} = {value}" for (sec, key), value in values.items() if sec == section]
        if lines:
            text += f"[{section}]\n" + "\n".join(lines) + "\n\n"
    return text, fault is not None or "fc9" in overrides


def test_the_config_space_covers_every_key():
    drawn = set(_VALID) | set(_REFUSED) | {("data", k) for k in (
        "dataset", "train", "test", "train_labels", "test_labels")} | {("dst", "dense_overrides")}
    assert drawn == {(section, key) for section, keys in _ALLOWED.items() for key in keys}


@settings(deadline=None)  # max_examples from the profile
@given(data=st.data())
def test_a_parsed_config_trains_and_a_refusal_names_its_key(small_blobs, tmp_path_factory,
                                                             data):
    # parse_config either refuses a config by [section] key, or run_train
    # finishes it: no other exception, and no refusal once training starts
    with tempfile.TemporaryDirectory(dir=tmp_path_factory.getbasetemp()) as out_dir:
        text, refused = data.draw(config_texts(small_blobs, out_dir))
        try:
            cfg = parse_config(text)
        except ConfigError as e:
            assert _names_a_key(str(e)), str(e)
            return
        assert not refused, text
        path = run_train(cfg)
        assert os.path.basename(path) == "final.ckpt" and os.path.isfile(path)


def _files(run_dir: str) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(Path(run_dir).iterdir())}


# each example trains three or four times, against once for the property
# above, so it draws an eighth as many configs to keep Tier-1 short
@settings(deadline=None, max_examples=max(1, settings.default.max_examples // 8))
@given(data=st.data())
def test_a_parsed_config_trains_to_the_same_bytes_again_and_through_a_resume(
        small_blobs, tmp_path_factory, data):
    # (b) a second run of a config writes the same bytes in every artifact;
    # (c) a run stopped after a drawn step and resumed from its checkpoint
    # writes every artifact of the uninterrupted run, with its bytes
    with tempfile.TemporaryDirectory(dir=tmp_path_factory.getbasetemp()) as out_dir:
        text, _ = data.draw(config_texts(small_blobs, out_dir, faults=False))
        try:
            cfg = parse_config(text)
        except ConfigError:
            assume(False)
        first, again, resumed = (replace(cfg, out_dir=f"{out_dir}/{name}")
                                 for name in ("first", "again", "resumed"))
        run_train(first)
        run_train(again)
        artifacts = _files(first.out_dir)
        assert _files(again.out_dir) == artifacts, text
        if cfg.total_steps > 1:
            stop = data.draw(st.integers(1, cfg.total_steps - 1), label="stop")
            run_train(resumed, resume_path=run_train(resumed, stop_after_step=stop))
            written = _files(resumed.out_dir)  # also holds the checkpoint of the stop
            assert {name: written.get(name) for name in artifacts} == artifacts, text
