"""Schedule formulas, update rules for every method, and trajectory records."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import step_gradients

from dstforge.models import build_model, parse_model_spec
from dstforge.optim import sgd_momentum_step
from dstforge.schedulers import (
    METHODS,
    PROBE_METHODS,
    BudgetTrajectory,
    DstConfig,
    granet_density,
    mest_soft_bound,
    should_update,
    synthetic_trajectory,
    topology_update,
)
from dstforge.sparsity import (
    allocate_uniform,
    apply_mask,
    init_topology,
    mask_shapes,
    prune_rate,
)


def toy_setup(method: str, sparsity: float = 0.5, total: int = 80, delta_t: int = 10,
              seed: int = 0, **kw):
    cfg = DstConfig(method=method, sparsity=sparsity, total_steps=total,
                    delta_t=delta_t, **kw)
    model = build_model(parse_model_spec("mlp:20-16-10"), np.random.default_rng(seed))
    alloc = allocate_uniform(model.descriptor(), sparsity)
    rng = np.random.default_rng((seed, 23))
    mask = init_topology(alloc, mask_shapes(model), rng, at_density=cfg.initial_density())
    apply_mask(model, mask)
    return cfg, model, alloc, mask, rng


def fake_batch(rng, n=8, f=20, classes=10):
    return rng.random((n, f)).astype(np.float32), rng.integers(0, classes, n)


def fake_backward(model, rng):
    """One forward and backward on a fake batch, leaving each weight's
    gradient in place as a training step's backward does."""
    step_gradients(model, *fake_batch(rng))


# --- config ------------------------------------------------------------------


def test_methods_tuple():
    assert METHODS == ("dense", "set", "rigl", "mest_r", "mest_g", "granet_r", "granet_g")


def test_config_validation():
    with pytest.raises(ValueError):
        DstConfig(method="lottery", total_steps=10)
    with pytest.raises(ValueError):
        DstConfig(method="dense", sparsity=0.5, total_steps=10)
    with pytest.raises(ValueError):
        DstConfig(method="set", sparsity=1.0, total_steps=10)
    with pytest.raises(ValueError):
        DstConfig(method="set", sparsity=0.5, total_steps=0)
    with pytest.raises(ValueError):
        DstConfig(method="set", sparsity=0.5, total_steps=10, delta_t=0)
    with pytest.raises(ValueError):
        DstConfig(method="set", sparsity=0.5, total_steps=10, p0=1.5)
    with pytest.raises(ValueError):
        DstConfig(method="granet_r", sparsity=0.1, total_steps=10, init_density=0.8)
    with pytest.raises(ValueError, match="soft_bound"):
        DstConfig(method="mest_r", sparsity=0.5, soft_bound=-0.3, total_steps=100, delta_t=10)
    with pytest.raises(ValueError, match="stop_step"):
        DstConfig(method="set", sparsity=0.5, total_steps=100, stop_step=-5)


def test_config_defaults():
    cfg = DstConfig(method="mest_r", sparsity=0.5, total_steps=100)
    assert cfg.budget == pytest.approx(0.5)
    assert cfg.b_s0 == pytest.approx(0.05)  # 0.1 * budget
    assert cfg.stop == 100
    cfg = DstConfig(method="granet_r", sparsity=0.5, total_steps=100)
    assert cfg.granet_horizon == 50
    assert cfg.init_density == pytest.approx(0.8)


def test_initial_density_per_method():
    assert DstConfig(method="dense", total_steps=1).initial_density() == 1.0
    assert DstConfig(method="set", sparsity=0.5, total_steps=10).initial_density() == 0.5
    mest = DstConfig(method="mest_g", sparsity=0.5, total_steps=10)
    assert mest.initial_density() == pytest.approx(0.55)
    gran = DstConfig(method="granet_g", sparsity=0.5, total_steps=10)
    assert gran.initial_density() == pytest.approx(0.8)


# --- schedule formulas --------------------------------------------------------


def test_should_update_semantics():
    cfg = DstConfig(method="set", sparsity=0.5, total_steps=100, delta_t=10)
    assert not should_update(cfg, 0)
    assert should_update(cfg, 10)
    assert not should_update(cfg, 15)
    assert should_update(cfg, 90)
    assert not should_update(cfg, 100)  # stop defaults to total, exclusive
    stopped = DstConfig(method="set", sparsity=0.5, total_steps=100, delta_t=10,
                        stop_step=50)
    assert should_update(stopped, 40)
    assert not should_update(stopped, 50)
    dense = DstConfig(method="dense", total_steps=100)
    assert not should_update(dense, 10)


def test_mest_soft_bound_anchors():
    cfg = DstConfig(method="mest_r", sparsity=0.5, total_steps=100)
    assert mest_soft_bound(cfg, 0) == pytest.approx(cfg.b_s0)
    assert mest_soft_bound(cfg, 50) == pytest.approx(cfg.b_s0 * 0.125)
    assert mest_soft_bound(cfg, 100) == 0.0
    with pytest.raises(ValueError):
        mest_soft_bound(cfg, 101)


def test_granet_density_anchors():
    cfg = DstConfig(method="granet_r", sparsity=0.5, total_steps=80, horizon=40)
    d_i, d_t = 0.8, 0.5
    assert granet_density(cfg, 0) == pytest.approx(d_i)
    assert granet_density(cfg, 20) == pytest.approx(d_t + (d_i - d_t) * 0.125)
    assert granet_density(cfg, 40) == pytest.approx(d_t)
    assert granet_density(cfg, 80) == pytest.approx(d_t)
    # the quoted midpoint identity: d(n/2) = d_i - 0.875 (d_i - d_t)
    assert granet_density(cfg, 20) == pytest.approx(d_i - 0.875 * (d_i - d_t))


def test_granet_density_start_step_offset():
    cfg = DstConfig(method="granet_r", sparsity=0.5, total_steps=100, horizon=40,
                    start_step=20)
    assert granet_density(cfg, 10) == pytest.approx(0.8)
    assert granet_density(cfg, 20) == pytest.approx(0.8)
    assert granet_density(cfg, 40) == pytest.approx(0.5 + 0.3 * 0.125)
    assert granet_density(cfg, 60) == pytest.approx(0.5)


def test_granet_run_anchor():
    # step 25 of 80, horizon 40: 0.375^3 = 0.052734375, so the density is
    # 0.5 + 0.3 * 0.052734375 = 0.5158203125
    cfg = DstConfig(method="granet_r", sparsity=0.5, total_steps=80, horizon=40)
    assert granet_density(cfg, 25) == pytest.approx(0.5158203125, abs=1e-12)


def test_mest_run_anchor():
    # step 25 of 80: next sampled density uses b_s(min(25+10, 80)) in the
    # trainer; the bound itself at 25 is b_s0 * (1 - 25/80)^3
    cfg = DstConfig(method="mest_r", sparsity=0.5, total_steps=80, delta_t=10)
    assert cfg.budget + mest_soft_bound(cfg, 35) == pytest.approx(
        0.5 + 0.05 * (1 - 35 / 80) ** 3)


# --- synthetic trajectories ---------------------------------------------------


def test_synthetic_trajectory_dense():
    cfg = DstConfig(method="dense", total_steps=100)
    traj = synthetic_trajectory(cfg)
    assert traj.samples == [(0, 1.0)]


def test_synthetic_trajectory_set_flat():
    cfg = DstConfig(method="set", sparsity=0.5, total_steps=50, delta_t=10)
    traj = synthetic_trajectory(cfg)
    assert [s for s, _ in traj.samples] == [0, 10, 20, 30, 40]
    assert all(d == pytest.approx(0.5) for _, d in traj.samples)


def test_synthetic_trajectory_mest_decays_to_budget():
    cfg = DstConfig(method="mest_r", sparsity=0.5, total_steps=100, delta_t=20)
    traj = synthetic_trajectory(cfg)
    ds = [d for _, d in traj.samples]
    assert ds[0] == pytest.approx(0.55)
    assert all(a >= b - 1e-12 for a, b in zip(ds, ds[1:]))
    assert traj.samples[-1] == (80, pytest.approx(0.5))  # b_s(100) = 0


def test_synthetic_trajectory_granet_matches_formula():
    cfg = DstConfig(method="granet_g", sparsity=0.5, total_steps=80, delta_t=10,
                    horizon=40)
    traj = synthetic_trajectory(cfg)
    for step, d in traj.samples:
        want = cfg.init_density if step == 0 else granet_density(cfg, step)
        assert d == pytest.approx(want), step


def test_synthetic_trajectory_respects_stop_step():
    cfg = DstConfig(method="set", sparsity=0.5, total_steps=100, delta_t=10,
                    stop_step=35)
    traj = synthetic_trajectory(cfg)
    assert [s for s, _ in traj.samples] == [0, 10, 20, 30]


# --- trajectory record --------------------------------------------------------


def test_trajectory_monotone_steps_enforced():
    t = BudgetTrajectory()
    t.record(0, 1.0)
    t.record(10, 0.5)
    with pytest.raises(ValueError):
        t.record(10, 0.4)
    with pytest.raises(ValueError):
        t.record(5, 0.4)


def test_trajectory_csv_round_trip(tmp_path):
    t = BudgetTrajectory([(0, 0.55), (500, 0.5123456789012345)])
    p = tmp_path / "traj.csv"
    t.write_csv(p)
    header, *rows = p.read_text().splitlines()
    assert header == "step,density"
    back = [(int(s), float(d)) for s, d in (row.split(",") for row in rows)]
    assert back == t.samples  # repr round-trip keeps exact floats


# --- update rules -------------------------------------------------------------


def test_set_update_preserves_counts_and_moves_positions():
    cfg, model, alloc, mask, rng = toy_setup("set")
    before = {n: mask[n].copy() for n in mask.names()}
    counts = {n: mask.active_count(n) for n in mask.names()}
    topology_update(model, mask, alloc, cfg, 10, rng)
    assert {n: mask.active_count(n) for n in mask.names()} == counts
    assert any(not np.array_equal(before[n], mask[n]) for n in mask.names())


def test_set_update_drops_smallest_magnitudes():
    cfg, model, alloc, mask, rng = toy_setup("set", delta_t=10)
    name = "fc1"
    w = {layer.name: layer for layer in model.layers}[name].weight.data
    m = mask[name]
    k = int(round(0.1 * (1 - 10 / 80) ** 0.01 * m.sum()))
    active = np.flatnonzero(m)
    order = np.argsort(np.abs(w.reshape(-1)[active]), kind="stable")
    expect_removed = set(active[order[:k]].tolist())
    topology_update(model, mask, alloc, cfg, 10, rng)
    now_active = set(np.flatnonzero(mask[name]).tolist())
    assert expect_removed.isdisjoint(now_active)


def test_rigl_update_regrows_largest_gradients():
    cfg, model, alloc, mask, rng = toy_setup("rigl", seed=3)
    fake_backward(model, np.random.default_rng(0))
    grads = {layer.name: layer.weight.grad.copy() for layer in model.layers}
    # the step's SGD update and re-mask leave the gradient the event reads
    sgd_momentum_step(model.parameters(), lr=0.1, momentum=0.9, weight_decay=1e-4)
    apply_mask(model, mask)
    name = "fc1"
    m_before = mask[name].copy()
    w = {layer.name: layer for layer in model.layers}[name].weight.data
    k = int(round(0.1 * (1 - 10 / 80) ** 0.01 * m_before.sum()))
    removed = set(np.flatnonzero(m_before)[
        np.argsort(np.abs(w.reshape(-1)[np.flatnonzero(m_before)]), kind="stable")[:k]
    ].tolist())
    topology_update(model, mask, alloc, cfg, 10, rng)
    grown = set(np.flatnonzero(mask[name]).tolist()) - set(np.flatnonzero(m_before).tolist())
    assert len(grown) == k
    # every grown position must carry a step-gradient magnitude at least as
    # large as any still-inactive, non-excluded candidate
    for layer in model.layers:
        np.testing.assert_array_equal(layer.weight.grad, grads[layer.name])
    g = np.abs(grads[name].reshape(-1))
    inactive_after = set(np.flatnonzero(~mask[name].reshape(-1)).tolist()) - removed
    if grown and inactive_after:
        assert min(g[i] for i in grown) >= max(g[i] for i in inactive_after) - 1e-12


def test_mest_update_tracks_soft_bound():
    cfg, model, alloc, mask, rng = toy_setup("mest_r", total=80, delta_t=10)
    fake_backward(model, np.random.default_rng(1))
    assert mask.global_density() == pytest.approx(0.55, abs=0.01)
    topology_update(model, mask, alloc, cfg, 10, rng)
    from dstforge.schedulers import mest_soft_bound as msb

    want = alloc.targets(at_density=cfg.budget + msb(cfg, 20))
    for n in mask.names():
        assert mask.active_count(n) == want[n]
    # final event regrows to b_s(total) = 0 -> exactly the base budget
    topology_update(model, mask, alloc, cfg, 70, rng)
    base = alloc.targets()
    for n in mask.names():
        assert mask.active_count(n) == base[n]


def test_mest_scoring_prefers_low_weight_and_low_grad():
    # lambda = 0 reduces the removal score to |w| alone
    cfg, model, alloc, mask, rng = toy_setup("mest_r", total=80, delta_t=10,
                                             mest_lambda=0.0)
    fake_backward(model, np.random.default_rng(2))
    name = "fc2"
    m = mask[name].copy()
    w = {layer.name: layer for layer in model.layers}[name].weight.data
    tgt = alloc.targets()[name]
    k_remove = max(0, int(m.sum()) - tgt)
    active = np.flatnonzero(m)
    order = np.argsort(np.abs(w.reshape(-1)[active]), kind="stable")
    expect_gone = set(active[order[:k_remove]].tolist())
    topology_update(model, mask, alloc, cfg, 70, rng)
    assert expect_gone.isdisjoint(np.flatnonzero(mask[name]).tolist())


def test_granet_update_decays_density():
    cfg, model, alloc, mask, rng = toy_setup("granet_r", total=80, delta_t=10,
                                             horizon=40)
    assert mask.global_density() == pytest.approx(0.8, abs=0.01)
    for step in (10, 20, 30, 40):
        topology_update(model, mask, alloc, cfg, step, rng)
        want = alloc.targets(at_density=granet_density(cfg, step))
        for n in mask.names():
            assert mask.active_count(n) == want[n], (step, n)
    assert mask.global_density() == pytest.approx(0.5, abs=0.01)


def test_granet_g_uses_gradient_regrowth():
    cfg, model, alloc, mask, rng = toy_setup("granet_g", total=80, delta_t=10,
                                             horizon=40, seed=5)
    fake_backward(model, np.random.default_rng(4))
    before = {n: mask[n].copy() for n in mask.names()}
    topology_update(model, mask, alloc, cfg, 10, rng)
    want = alloc.targets(at_density=granet_density(cfg, 10))
    for n in mask.names():
        assert mask.active_count(n) == want[n]
    assert any(not np.array_equal(before[n], mask[n]) for n in mask.names())


@pytest.mark.parametrize("method", METHODS[1:])
def test_probe_methods_match_the_kernel(method):
    """The cost account charges a dense-gradient probe per event exactly for
    the methods whose update reads a gradient: with every weight gradient
    cleared, the others complete and these raise, naming the layer."""
    cfg, model, alloc, mask, rng = toy_setup(method)
    model.zero_grad()
    if method in PROBE_METHODS:
        with pytest.raises(ValueError, match="'fc1'"):
            topology_update(model, mask, alloc, cfg, 10, rng)
    else:
        topology_update(model, mask, alloc, cfg, 10, rng)


def test_topology_update_rejects_dense():
    cfg, model, alloc, mask, rng = toy_setup("set")
    dense = DstConfig(method="dense", total_steps=80)
    with pytest.raises(ValueError):
        topology_update(model, mask, alloc, dense, 10, rng)


@settings(deadline=None, max_examples=20)
@given(st.sampled_from(["set", "rigl", "mest_r", "mest_g", "granet_r", "granet_g"]),
       st.integers(min_value=0, max_value=1000))
def test_update_never_breaks_budget_bounds(method, seed):
    cfg, model, alloc, mask, rng = toy_setup(method, total=80, delta_t=10, seed=seed)
    data_rng = np.random.default_rng(seed)
    layers = {layer.name: layer for layer in model.layers}
    for step in (10, 40, 70):
        fake_backward(model, data_rng)
        topology_update(model, mask, alloc, cfg, step, rng)
        apply_mask(model, mask)
        for n in mask.names():
            assert np.all(layers[n].weight.data[~mask[n]] == 0.0)
        assert 0.0 < mask.global_density() <= 1.0


def schedule_targets(cfg: DstConfig, alloc, step: int) -> dict[str, int]:
    """Per-layer active counts each method's schedule prescribes after the
    event at `step`."""
    if cfg.method in ("mest_r", "mest_g"):
        next_step = min(step + cfg.delta_t, cfg.total_steps)
        return alloc.targets(at_density=cfg.budget + mest_soft_bound(cfg, next_step))
    if cfg.method in ("granet_r", "granet_g"):
        return alloc.targets(at_density=granet_density(cfg, step))
    return alloc.targets()


def schedule_floors(cfg: DstConfig, alloc, step: int, targets: dict) -> dict[str, int]:
    """Per-layer counts each method's removal takes a layer down to at `step`."""
    if cfg.method in ("mest_r", "mest_g"):
        return alloc.targets()
    p = prune_rate(cfg.p0, step, cfg.total_steps)
    return {n: t - int(round(p * t)) for n, t in targets.items()}


@settings(deadline=None, max_examples=30)
@given(st.sampled_from(["set", "rigl", "mest_r", "mest_g", "granet_r", "granet_g"]),
       st.sampled_from([0.3, 0.5, 0.8]),
       st.integers(min_value=0, max_value=10_000))
def test_every_event_meets_schedule_with_disjoint_moves(method, sparsity, seed):
    """Train a toy MLP through every event of a run; after each one every
    layer holds its scheduled count, and the mask change is exactly k_remove
    deactivated and k_grow activated positions, both computed from the
    schedule's target and floor (a position removed and regrown in one event
    would show as fewer of each), and masked weights and momentum are
    exactly zero."""
    cfg, model, alloc, mask, rng = toy_setup(method, sparsity=sparsity, total=40,
                                             delta_t=4, seed=seed)
    data_rng = np.random.default_rng((seed, 1))
    layers = {layer.name: layer for layer in model.layers}
    events = 0
    for step in range(1, cfg.total_steps):
        step_gradients(model, *fake_batch(data_rng))
        sgd_momentum_step(model.parameters(), lr=0.1, momentum=0.9, weight_decay=1e-4)
        apply_mask(model, mask)
        if not should_update(cfg, step):
            continue
        before = {n: mask[n].copy() for n in mask.names()}
        topology_update(model, mask, alloc, cfg, step, rng)
        apply_mask(model, mask)
        events += 1
        targets = schedule_targets(cfg, alloc, step)
        floors = schedule_floors(cfg, alloc, step, targets)
        for n in mask.names():
            active = int(before[n].sum())
            k_remove = min(max(0, active - floors[n]), before[n].size - targets[n])
            k_grow = targets[n] - (active - k_remove)
            assert np.count_nonzero(before[n] & ~mask[n]) == k_remove, (method, n, step)
            assert np.count_nonzero(~before[n] & mask[n]) == k_grow, (method, n, step)
            assert mask.active_count(n) == targets[n], (method, n, step)
            weight = layers[n].weight
            assert np.all(weight.data[~mask[n]] == 0.0)
            assert np.all(weight.momentum[~mask[n]] == 0.0)
    assert events == 9
