"""Accuracy plumbing, relative gains, and FLOPs/parameter accounting."""

import json

import numpy as np
import pytest

import dstforge.metrics
from dstforge.data import DataError, ImageSet, save_image_set
from dstforge.metrics import (
    CostReport,
    MetricsReport,
    accuracy,
    attach_baseline,
    batched_accuracy,
    inference_flops,
    param_count,
    relative_gain,
    robustness_accuracy,
    training_flops,
)
from dstforge.models import build_model, descriptor_library, parse_model_spec
from dstforge.schedulers import BudgetTrajectory, DstConfig, synthetic_trajectory
from dstforge.sparsity import DENSE, allocate_erk, allocate_uniform


def toy_set(n=20, seed=0):
    r = np.random.default_rng(seed)
    return ImageSet(images=r.random((n, 1, 12, 12)).astype(np.float32),
                    labels=r.integers(0, 10, n).astype(np.int64), name="toy")


# --- accuracy ---------------------------------------------------------------


def test_accuracy_counts_correct_predictions():
    model = build_model(parse_model_spec("mlp:144-16-10"), np.random.default_rng(0))
    s = toy_set()
    acc = accuracy(model, s)
    preds = model.predict(s.images).argmax(axis=1)
    assert acc == pytest.approx((preds == s.labels).mean())


def test_accuracy_batching_invariant(monkeypatch):
    model = build_model(parse_model_spec("mlp:144-16-10"), np.random.default_rng(0))
    s = toy_set(n=37)
    whole = accuracy(model, s)
    monkeypatch.setattr(dstforge.metrics, "EVAL_BATCH", 5)
    assert accuracy(model, s) == whole


def test_accuracy_empty_set_rejected():
    model = build_model(parse_model_spec("mlp:144-16-10"), np.random.default_rng(0))
    with pytest.raises(DataError):
        accuracy(model, ImageSet(images=np.zeros((0, 1, 12, 12), dtype=np.float32),
                                 labels=np.zeros(0, dtype=np.int64), name="empty"))


def test_batched_accuracy_empty_set_rejected():
    # the one accuracy loop refuses an empty set for every caller (the
    # trainer's test accuracy and attenuation curves too), not only accuracy()
    model = build_model(parse_model_spec("mlp:144-16-10"), np.random.default_rng(0))
    with pytest.raises(DataError, match="empty image set"):
        batched_accuracy([model], np.zeros((0, 1, 12, 12), dtype=np.float32),
                         np.zeros(0, dtype=np.int64))


@pytest.mark.parametrize("bad,record", [(-1, 3), (12, 5)])
def test_batched_accuracy_refuses_a_label_outside_the_models_classes(bad, record):
    # the bound is the model's class count, 12 here, not a fixed 10
    model = build_model(parse_model_spec("mlp:144-16-12"), np.random.default_rng(0))
    s = toy_set()
    assert batched_accuracy([model], s.images, np.full(20, 11))[0] >= 0.0
    labels = s.labels.copy()
    labels[record] = bad
    with pytest.raises(DataError, match=rf"label {bad} outside \[0, 12\) at record {record}"):
        batched_accuracy([model], s.images, labels)


def test_accuracy_shape_mismatch_names_the_set():
    model = build_model(parse_model_spec("mlp:100-10"), np.random.default_rng(0))
    s = toy_set()
    with pytest.raises(DataError, match="toy"):
        accuracy(model, s)


def test_robustness_accuracy_mean_over_cells():
    model = build_model(parse_model_spec("mlp:144-16-10"), np.random.default_rng(1))
    sets = {("gaussian_noise", 1): toy_set(seed=1), ("contrast", 5): toy_set(seed=2)}
    [rep] = robustness_accuracy([model], sets)
    assert rep.model_id == "mlp:144-16-10"
    assert set(rep.cells) == set(sets)
    assert rep.mean == pytest.approx(np.mean(list(rep.cells.values())))
    with pytest.raises(DataError):
        robustness_accuracy([model], {})


def test_clean_set_as_single_cell_equals_clean_accuracy():
    model = build_model(parse_model_spec("mlp:144-16-10"), np.random.default_rng(1))
    s = toy_set(seed=3)
    [rep] = robustness_accuracy([model], {("clean", 1): s})
    assert rep.mean == pytest.approx(accuracy(model, s))


def test_robustness_accuracy_loads_each_path_once_and_scores_it_with_every_model(
        tmp_path, monkeypatch):
    spec = parse_model_spec("mlp:144-16-10")
    models = [build_model(spec, np.random.default_rng(seed)) for seed in (1, 2)]
    sets = {("gaussian_noise", s): toy_set(seed=s) for s in (1, 2, 3)}
    paths = {}
    for key, s in sets.items():
        paths[key] = str(tmp_path / f"toy-{key[0]}-s{key[1]}.bin")
        save_image_set(s, paths[key])
    log = []
    load, score = dstforge.metrics.load_image_set, dstforge.metrics.accuracy

    def logged_load(path, *args, **kwargs):
        log.append(("load", path))
        return load(path, *args, **kwargs)

    def logged_score(model, s, *args, **kwargs):
        log.append(("score", models.index(model)))
        return score(model, s, *args, **kwargs)

    monkeypatch.setattr(dstforge.metrics, "load_image_set", logged_load)
    monkeypatch.setattr(dstforge.metrics, "accuracy", logged_score)
    reports = robustness_accuracy(models, paths)
    assert log == [entry for p in paths.values()
                   for entry in (("load", p), ("score", 0), ("score", 1))]
    monkeypatch.undo()
    # the persisted sets are quantized, so score the files against themselves
    for model, report in zip(models, reports):
        [single] = robustness_accuracy([model], paths)
        assert report.cells == single.cells
        assert report.mean == single.mean


# --- relative gain ------------------------------------------------------------


def test_relative_gain_anchors():
    # Hand-checked: 0.91 / 51.65 and 3.62 / 19.82.
    assert relative_gain(52.56, 51.65) == pytest.approx(0.0176186, abs=5e-7)
    assert relative_gain(23.44, 19.82) == pytest.approx(0.1826438, abs=5e-7)


def test_relative_gain_rejects_zero_baseline():
    with pytest.raises(ValueError):
        relative_gain(0.5, 0.0)


def test_attach_baseline_fills_gains():
    rep = MetricsReport(cells={("a", 1): 0.6, ("a", 2): 0.4, ("b", 1): 0.5},
                        mean=0.5, model_id="sparse")
    base = MetricsReport(cells={("a", 1): 0.5, ("a", 2): 0.5, ("b", 1): 0.25},
                         mean=0.4166667, model_id="dense")
    attach_baseline(rep, base)
    assert rep.baseline_id == "dense"
    assert rep.per_kind_gain["a"] == pytest.approx(0.0)  # 0.5 vs 0.5
    assert rep.per_kind_gain["b"] == pytest.approx(1.0)  # 0.5 vs 0.25
    assert rep.mean_gain == pytest.approx(relative_gain(0.5, 0.4166667))
    doc = json.loads(rep.to_json())
    assert doc["baseline"] == "dense"
    assert doc["per_kind_relative_gain"]["b"] == pytest.approx(1.0)


def test_report_json_and_csv(tmp_path):
    rep = MetricsReport(cells={("b", 2): 0.25, ("a", 1): 0.75}, mean=0.5, model_id="m")
    doc = json.loads(rep.to_json())
    assert doc["model"] == "m"
    assert doc["mean_robustness_accuracy"] == 0.5
    assert doc["cells"][0] == {"kind": "a", "severity": 1, "accuracy": 0.75}
    p = tmp_path / "cells.csv"
    rep.write_csv(p)
    assert p.read_text().splitlines() == ["kind,severity,accuracy", "a,1,0.75", "b,2,0.25"]


def test_kind_means():
    rep = MetricsReport(cells={("a", 1): 0.6, ("a", 2): 0.2, ("b", 1): 0.9}, mean=0.0)
    km = rep.kind_means()
    assert km["a"] == pytest.approx(0.4)
    assert km["b"] == pytest.approx(0.9)


# --- compute accounting --------------------------------------------------------


def test_vgg16_dense_inference_flops_exact():
    desc = descriptor_library()["vgg16-cifar"]
    assert inference_flops(desc) == 626_927_616.0


def test_resnet34_dense_inference_flops_exact():
    desc = descriptor_library()["resnet34-cifar"]
    assert inference_flops(desc) == 2_318_804_992.0


def test_vgg16_erk_half_inference_flops():
    desc = descriptor_library()["vgg16-cifar"]
    alloc = allocate_erk(desc, 0.5)
    assert inference_flops(desc, alloc) == pytest.approx(313_183_607.5, rel=1e-9)


def test_inference_flops_density_scale_clamps_at_dense():
    desc = descriptor_library()["vgg16-cifar"]
    alloc = allocate_uniform(desc, 0.5)
    dense = inference_flops(desc)
    assert inference_flops(desc, alloc, at_density=1.0) == pytest.approx(dense)
    assert inference_flops(desc, alloc, at_density=0.5) == pytest.approx(dense / 2, rel=1e-6)


def test_param_count_anchors():
    lib = descriptor_library()
    assert param_count(lib["vgg16-cifar"]) == 14_990_922
    assert param_count(lib["resnet34-cifar"]) == 21_282_122
    half = param_count(lib["vgg16-cifar"], allocate_uniform(lib["vgg16-cifar"], 0.5))
    assert half == 7_502_058
    erk_half = param_count(lib["vgg16-cifar"], allocate_erk(lib["vgg16-cifar"], 0.5))
    assert abs(erk_half - half) <= 32  # same budget, per-layer rounding differs


def test_param_count_spec_tolerances():
    lib = descriptor_library()
    assert abs(param_count(lib["vgg16-cifar"]) - 15.25e6) / 15.25e6 < 0.05
    uni = param_count(lib["vgg16-cifar"], allocate_uniform(lib["vgg16-cifar"], 0.5))
    assert abs(uni - 7.89e6) / 7.89e6 < 0.05
    assert abs(inference_flops(lib["vgg16-cifar"]) - 6.30e8) / 6.30e8 < 0.02
    alloc = allocate_uniform(lib["vgg16-cifar"], 0.5)
    assert abs(inference_flops(lib["vgg16-cifar"], alloc) - 3.17e8) / 3.17e8 < 0.05


def test_dense_training_flops_closed_form():
    desc = descriptor_library()["vgg16-cifar"]
    traj = BudgetTrajectory([(0, 1.0)])
    total = training_flops(desc, DENSE, traj, steps=80_000, batch=100)
    assert total == pytest.approx(1.5046262784e16, rel=1e-12)
    assert abs(total - 1.51e16) / 1.51e16 < 0.01


def test_set_training_flops_closed_form():
    desc = descriptor_library()["vgg16-cifar"]
    alloc = allocate_erk(desc, 0.5)
    cfg = DstConfig(method="set", sparsity=0.5, total_steps=80_000, delta_t=500)
    traj = synthetic_trajectory(cfg)
    total = training_flops(desc, alloc, traj, steps=80_000, batch=100)
    assert total == pytest.approx(7.516406580779795e15, rel=1e-9)


def test_training_flops_segment_integration():
    desc = descriptor_library()["vgg16-cifar"]
    alloc = allocate_uniform(desc, 0.5)
    base = inference_flops(desc, alloc)
    traj = BudgetTrajectory([(0, 0.5), (10, 0.25)])
    got = training_flops(desc, alloc, traj, steps=20, batch=2)
    # 10 steps at density 0.5 plus 10 at 0.25 (half the layer densities)
    want = 10 * 2 * 3 * base + 10 * 2 * 3 * inference_flops(desc, alloc, at_density=0.25)
    assert got == pytest.approx(want, rel=1e-12)


def test_training_flops_probe_events_add_dense_probes():
    desc = descriptor_library()["vgg16-cifar"]
    alloc = allocate_uniform(desc, 0.5)
    traj = BudgetTrajectory([(0, 0.5)])
    without = training_flops(desc, alloc, traj, steps=100, batch=4)
    withp = training_flops(desc, alloc, traj, steps=100, batch=4, probe_events=3)
    assert withp - without == pytest.approx(3 * 4 * 3 * inference_flops(desc), rel=1e-12)


def test_training_flops_validation():
    desc = descriptor_library()["vgg16-cifar"]
    with pytest.raises(ValueError):
        training_flops(desc, None, BudgetTrajectory([(0, 1.0)]), steps=0, batch=1)
    with pytest.raises(ValueError):
        training_flops(desc, None, BudgetTrajectory([(5, 1.0)]), steps=10, batch=1)
    with pytest.raises(ValueError):
        training_flops(desc, None, BudgetTrajectory([(0, 1.0), (20, 0.5)]), steps=10, batch=1)


def test_mest_soft_start_costs_more_than_flat():
    desc = descriptor_library()["vgg16-cifar"]
    alloc = allocate_erk(desc, 0.5)
    soft = DstConfig(method="mest_r", sparsity=0.5, total_steps=10_000, delta_t=500)
    flat = DstConfig(method="mest_r", sparsity=0.5, total_steps=10_000, delta_t=500,
                     soft_bound=0.0)
    cost_soft = training_flops(desc, alloc, synthetic_trajectory(soft), 10_000, 10)
    cost_flat = training_flops(desc, alloc, synthetic_trajectory(flat), 10_000, 10)
    assert cost_soft > cost_flat


def test_granet_costs_more_than_set_at_equal_final_density():
    desc = descriptor_library()["vgg16-cifar"]
    alloc = allocate_erk(desc, 0.5)
    gran = DstConfig(method="granet_r", sparsity=0.5, total_steps=10_000, delta_t=500,
                     init_density=0.8)
    set_cfg = DstConfig(method="set", sparsity=0.5, total_steps=10_000, delta_t=500)
    cost_gran = training_flops(desc, alloc, synthetic_trajectory(gran), 10_000, 10)
    cost_set = training_flops(desc, alloc, synthetic_trajectory(set_cfg), 10_000, 10)
    assert cost_gran > cost_set


def test_allocation_layer_mismatch_rejected():
    desc = descriptor_library()["vgg16-cifar"]
    other = descriptor_library()["resnet34-cifar"]
    alloc = allocate_uniform(other, 0.5)
    with pytest.raises(ValueError):
        inference_flops(desc, alloc)


def test_cost_report_json_round_trip():
    rep = CostReport(arch="vgg16-cifar", method="set", density=0.5,
                     inference_flops=1.0, training_flops=2.0, param_count=3,
                     trajectory=[(0, 0.5)], probe_events=4)
    doc = json.loads(rep.to_json())
    assert doc["arch"] == "vgg16-cifar"
    assert doc["trajectory"] == [[0, 0.5]]
    assert doc["probe_events"] == 4
