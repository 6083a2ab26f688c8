"""Config grammar: sections, defaults, validation, and derived quantities."""

import pytest

from conftest import toy_config

from dstforge.config import ConfigError, load_config, parse_config


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
    text = toy_config(idx_dir, str(tmp_path / "o")).replace("epochs = 2", "epochs = two")
    with pytest.raises(ConfigError, match="epochs"):
        parse_config(text)


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
    a = parse_config(toy_config(idx_dir, str(tmp_path / "o")))
    b = parse_config(toy_config(idx_dir, str(tmp_path / "o")))
    c = parse_config(toy_config(idx_dir, str(tmp_path / "o"), seed=2))
    assert a.digest() == b.digest()
    assert a.digest() != c.digest()


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
                      extra_dst="dense_overrides = fc1, fc3")
    cfg = parse_config(text)
    assert cfg.dense_overrides == ("fc1", "fc3")


def test_multi_file_train_counts(idx_dir, tmp_path):
    text = toy_config(idx_dir, str(tmp_path / "o")).replace(
        f"train = {idx_dir}/train-images-idx3-ubyte",
        f"train = {idx_dir}/train-images-idx3-ubyte, {idx_dir}/t10k-images-idx3-ubyte")
    text = "\n".join(l for l in text.splitlines() if not l.startswith("train_labels"))
    cfg = parse_config(text)
    assert cfg.n_train == 1900
