"""Allocation math, mask bookkeeping, and the picks of a topology event."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from conftest import topology_event

from dstforge.metrics import param_count
from dstforge.models import (
    ArchDescriptor,
    LayerSpec,
    build_model,
    descriptor_library,
    parse_model_spec,
)
from dstforge.schedulers import DstConfig, topology_update
from dstforge.sparsity import (
    DENSE,
    LayerBudget,
    SparsityAllocation,
    TopologyMask,
    _select_lowest,
    allocate_erk,
    allocate_uniform,
    apply_mask,
    init_topology,
    mask_shapes,
    prune_rate,
)


def two_layer_desc() -> ArchDescriptor:
    conv = LayerSpec("conv1", "conv", 16, 16, 3, 3, 8, 8)
    lin = LayerSpec("fc1", "linear", 4, 4, 1, 1, 1, 1)
    return ArchDescriptor("toy", 4, (conv, lin))


def erk_factor(s: LayerSpec) -> float:
    w = s.kw if s.kind == "conv" else 1
    h = s.kh if s.kind == "conv" else 1
    return 1.0 - (s.c_in + s.c_out + w + h) / (s.c_in * s.c_out * w * h)


def bisect_erk(desc: ArchDescriptor, budget: float, tol: float = 1e-9) -> dict[str, float]:
    """Independent route to the same allocation: solve for the scale factor
    by bisection on the clamped global density."""
    layers = desc.sparsifiable_layers()
    total = sum(s.weight_count() for s in layers)

    def global_density(eps: float) -> float:
        return sum(min(1.0, eps * erk_factor(s)) * s.weight_count() for s in layers) / total

    lo, hi = 0.0, 1.0
    while global_density(hi) < budget:
        hi *= 2.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if global_density(mid) < budget:
            lo = mid
        else:
            hi = mid
    eps = 0.5 * (lo + hi)
    return {s.name: min(1.0, eps * erk_factor(s)) for s in layers}


# --- allocations -----------------------------------------------------------


def _density(alloc, name: str) -> float:
    return {lb.name: lb.density for lb in alloc.layers}[name]


def test_uniform_allocation_is_flat():
    alloc = allocate_uniform(two_layer_desc(), sparsity=0.5)
    assert alloc.global_density == pytest.approx(0.5)
    for lb in alloc.layers:
        assert lb.density == pytest.approx(0.5)


def test_uniform_dense_override_renormalizes():
    desc = two_layer_desc()
    alloc = allocate_uniform(desc, sparsity=0.5, dense_overrides=("fc1",))
    assert _density(alloc, "fc1") == 1.0
    total = alloc.total_weights()
    active = sum(lb.density * lb.weights for lb in alloc.layers)
    assert active / total == pytest.approx(0.5)


def test_allocation_rejects_bad_sparsity():
    desc = two_layer_desc()
    for s in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError):
            allocate_uniform(desc, s)
        with pytest.raises(ValueError):
            allocate_erk(desc, s)


def test_erk_matches_bisection_on_example():
    desc = two_layer_desc()
    alloc = allocate_erk(desc, sparsity=0.5)
    oracle = bisect_erk(desc, 0.5)
    for lb in alloc.layers:
        assert lb.density == pytest.approx(oracle[lb.name], abs=1e-6)
    # conv factor 1 - 38/2304, linear factor 1 - 10/16: the tiny fc layer gets
    # proportionally less density than the conv layer
    assert _density(alloc, "conv1") > _density(alloc, "fc1")


def test_erk_matches_bisection_on_library_nets():
    lib = descriptor_library()
    for name in ("vgg16-cifar", "resnet34-cifar"):
        desc = lib[name]
        for sparsity in (0.5, 0.9):
            alloc = allocate_erk(desc, sparsity)
            oracle = bisect_erk(desc, 1.0 - sparsity)
            for lb in alloc.layers:
                assert lb.density == pytest.approx(oracle[lb.name], abs=1e-6), (name, lb.name)


def test_erk_budget_is_met_exactly():
    desc = descriptor_library()["vgg16-cifar"]
    for sparsity in (0.2, 0.5, 0.8, 0.95):
        alloc = allocate_erk(desc, sparsity)
        active = sum(lb.density * lb.weights for lb in alloc.layers)
        assert active / alloc.total_weights() == pytest.approx(1.0 - sparsity, abs=1e-9)
        for lb in alloc.layers:
            assert 0.0 <= lb.density <= 1.0 + 1e-12


def test_erk_clamps_oversubscribed_layers_dense():
    # At budget 0.996 the conv layer's raw share exceeds 1, so it must be
    # pinned dense and the remainder re-solved on the fc layer alone.
    desc = two_layer_desc()
    alloc = allocate_erk(desc, sparsity=0.004)
    assert _density(alloc, "conv1") == 1.0
    assert _density(alloc, "fc1") == pytest.approx(0.42, abs=1e-12)
    active = sum(lb.density * lb.weights for lb in alloc.layers)
    assert active / alloc.total_weights() == pytest.approx(0.996, abs=1e-9)


def test_erk_dense_override():
    desc = two_layer_desc()
    alloc = allocate_erk(desc, sparsity=0.5, dense_overrides=("fc1",))
    assert _density(alloc, "fc1") == 1.0
    active = sum(lb.density * lb.weights for lb in alloc.layers)
    assert active / alloc.total_weights() == pytest.approx(0.5, abs=1e-9)


def test_unknown_dense_override_rejected():
    with pytest.raises(ValueError):
        allocate_uniform(two_layer_desc(), 0.5, dense_overrides=("conv9",))


def test_infeasible_dense_overrides_rejected():
    # fc1 holds 9216 of mlp:144-64-10's 9856 weights, more than 10% of them
    desc = build_model(parse_model_spec("mlp:144-64-10"), np.random.default_rng(0)).descriptor()
    for alloc_fn in (allocate_uniform, allocate_erk):
        # the budget prints as 0.1, not 1 - 0.9 = 0.09999999999999998
        with pytest.raises(ValueError, match=r"^global density 0\.1 infeasible with "
                                             r"dense_overrides covering 9216/9856 weights$"):
            alloc_fn(desc, 0.9, dense_overrides=("fc1",))
        # every layer dense cannot meet any budget below 1
        with pytest.raises(ValueError, match="covering 9856/9856 weights"):
            alloc_fn(desc, 0.5, dense_overrides=("fc1", "fc2"))
        assert alloc_fn(desc, 0.0, dense_overrides=("fc1", "fc2")).densities() == {
            "fc1": 1.0, "fc2": 1.0}


def test_erk_rejects_a_layer_with_no_positive_factor():
    # a 1-wide hidden layer: fc1's factor is 1 - 147/144 and fc2's 1 - 13/10
    desc = build_model(parse_model_spec("mlp:144-1-10"), np.random.default_rng(0)).descriptor()
    with pytest.raises(ValueError, match="'fc1' is too small"):
        allocate_erk(desc, 0.5)
    with pytest.raises(ValueError, match="'fc2' is too small"):
        allocate_erk(desc, 0.05, dense_overrides=("fc1",))
    assert allocate_uniform(desc, 0.5).densities() == {"fc1": 0.5, "fc2": 0.5}


@st.composite
def budget_cases(draw):
    """A small descriptor of conv, linear and bn rows, a sparsity, a set of
    dense overrides and an allocation rule."""
    layers = []
    for i in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(("conv", "linear", "bn")))
        c_in, c_out = draw(st.integers(1, 40)), draw(st.integers(1, 40))
        if kind == "conv":
            k = draw(st.sampled_from((1, 3, 5)))
            layers.append(LayerSpec(f"conv{i}", "conv", c_in, c_out, k, k, 4, 4))
        elif kind == "linear":
            layers.append(LayerSpec(f"fc{i}", "linear", c_in, c_out, 1, 1, 1, 1))
        else:
            layers.append(LayerSpec(f"bn{i}", "bn", c_out, c_out, 0, 0, 4, 4))
    desc = ArchDescriptor("rand", 10, tuple(layers))
    names = [s.name for s in desc.sparsifiable_layers()]
    assume(names)
    overrides = tuple(n for n in names if draw(st.booleans()) and draw(st.booleans()))
    sparsity = draw(st.floats(0.0, 0.99, exclude_max=True))
    dist = draw(st.sampled_from(("erk", "uniform")))
    return desc, sparsity, overrides, dist


@settings(max_examples=300, deadline=None)
@given(budget_cases(), st.floats(0.0, 1.0))
def test_allocation_properties(case, at):
    desc, sparsity, overrides, dist = case
    layers = desc.sparsifiable_layers()
    weights = {s.name: s.weight_count() for s in layers}
    total = sum(weights.values())
    factors = {s.name: erk_factor(s) if dist == "erk" else 1.0 for s in layers}
    alloc_fn = allocate_erk if dist == "erk" else allocate_uniform
    b = 1.0 - sparsity
    if (b * total < sum(weights[n] for n in overrides)
            or any(factors[n] <= 0 for n in weights if n not in overrides)):
        with pytest.raises(ValueError):
            alloc_fn(desc, sparsity, overrides)
        return
    alloc = alloc_fn(desc, sparsity, overrides)
    dens = alloc.densities()
    assert alloc.global_density == b
    assert sum(dens[n] * weights[n] for n in dens) / total == pytest.approx(b, abs=1e-9)
    assert all(0.0 <= d <= 1.0 for d in dens.values())
    assert all(dens[n] == 1.0 for n in overrides)
    # unpinned layers share one ratio density/factor; pinned ones would exceed 1 at it
    free = [n for n in dens if n not in overrides and dens[n] < 1.0]
    if free:
        eps = dens[free[0]] / factors[free[0]]
        for n in dens:
            if n in free:
                assert dens[n] == pytest.approx(eps * factors[n], rel=1e-9, abs=1e-15)
            elif n not in overrides:
                assert eps * factors[n] >= 1.0 - 1e-9
    for targets in (alloc.targets(), alloc.targets(at)):
        assert all(0 <= targets[n] <= weights[n] for n in weights)
    dense_params = sum(s.param_count() for s in desc.layers)
    assert param_count(desc, alloc) == dense_params - total + sum(alloc.targets().values())


def test_sparsity_zero_endpoint_is_dense():
    for alloc_fn in (allocate_uniform, allocate_erk):
        alloc = alloc_fn(two_layer_desc(), 0.0)
        for lb in alloc.layers:
            assert lb.density == pytest.approx(1.0)
        assert alloc.targets() == {"conv1": 2304, "fc1": 16}


def test_targets_rescaling():
    alloc = allocate_uniform(two_layer_desc(), sparsity=0.5)
    base = alloc.targets()
    assert base == {"conv1": 1152, "fc1": 8}
    up = alloc.targets(at_density=0.75)
    assert up == {"conv1": 1728, "fc1": 12}
    capped = alloc.targets(at_density=1.5)  # clamped at layer size
    assert capped == {"conv1": 2304, "fc1": 16}


# --- topology init / apply -------------------------------------------------


def test_init_topology_counts_match_targets():
    desc = two_layer_desc()
    alloc = allocate_erk(desc, 0.5)
    shapes = {"conv1": (16, 16, 3, 3), "fc1": (4, 4)}
    mask = init_topology(alloc, shapes, np.random.default_rng(0))
    targets = alloc.targets()
    for name in mask.names():
        assert mask.active_count(name) == targets[name]
        assert mask[name].shape == shapes[name]


def test_init_topology_deterministic():
    alloc = allocate_uniform(two_layer_desc(), 0.5)
    shapes = {"conv1": (16, 16, 3, 3), "fc1": (4, 4)}
    a = init_topology(alloc, shapes, np.random.default_rng(7))
    b = init_topology(alloc, shapes, np.random.default_rng(7))
    for name in a.names():
        np.testing.assert_array_equal(a[name], b[name])


def test_init_topology_shape_mismatch_raises():
    alloc = allocate_uniform(two_layer_desc(), 0.5)
    with pytest.raises(ValueError):
        init_topology(alloc, {"conv1": (16, 16, 3, 3), "fc1": (4, 5)},
                      np.random.default_rng(0))


def test_apply_mask_zeroes_weights_and_momentum():
    model = build_model(parse_model_spec("mlp:6-4-2"), np.random.default_rng(1))
    model.layers[0].weight.momentum[:] = 1.0
    mask = TopologyMask({"fc1": np.zeros((4, 6), dtype=bool), "fc2": np.ones((2, 4), dtype=bool)})
    apply_mask(model, mask)
    assert np.all(model.layers[0].weight.data == 0.0)
    assert np.all(model.layers[0].weight.momentum == 0.0)
    assert np.any(model.layers[1].weight.data != 0.0)


def test_mask_shapes_covers_sparsifiable_layers():
    model = build_model(parse_model_spec("mlp:6-4-2"), np.random.default_rng(0))
    assert mask_shapes(model) == {"fc1": (4, 6), "fc2": (2, 4)}


def test_mask_accounting():
    m = TopologyMask({"a": np.array([[True, False], [True, True]]),
                      "b": np.array([False, False, True])})
    assert m.active_count("a") == 3
    assert m.total_active() == 4
    assert m.total_weights() == 7
    assert m.global_density() == pytest.approx(4 / 7)


def test_dense_is_the_empty_topology():
    assert TopologyMask({}).global_density() == 1.0
    model = build_model(parse_model_spec("mlp:6-4-2"), np.random.default_rng(0))
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    mask = init_topology(DENSE, mask_shapes(model), rng, at_density=1.0)
    assert mask.names() == () and mask.global_density() == 1.0
    assert rng.bit_generator.state == state  # no draws
    before = [layer.weight.data.copy() for layer in model.layers]
    apply_mask(model, mask)
    for w, layer in zip(before, model.layers):
        np.testing.assert_array_equal(layer.weight.data, w)


# --- selection rules: the picks of one topology event --------------------


def removed(w, mask, k):
    """Positions an event removing k and regrowing none deactivates."""
    return topology_event(np.asarray(w, dtype=float), np.zeros(np.shape(w)), mask, k, 0)[0]


def grown(grad, mask, k, method="rigl", rng=None):
    """Positions an event removing none and regrowing k activates."""
    grad = np.asarray(grad, dtype=float)
    return topology_event(np.zeros(grad.shape), grad, mask, 0, k, method, rng)[1]


def test_magnitude_prune_anchor():
    assert removed([0.1, -0.5, 0.2], np.ones(3, dtype=bool), 1).tolist() == [0]


def test_magnitude_prune_tie_takes_lowest_index():
    w = np.array([0.9, 0.8, 0.3, 0.7, 0.6, 0.3])
    mask = np.ones(6, dtype=bool)
    assert removed(w, mask, 1).tolist() == [2]
    assert removed(w, mask, 2).tolist() == [2, 5]


def test_magnitude_prune_ignores_inactive():
    assert removed([0.01, 0.5, 0.4], np.array([False, True, True]), 1).tolist() == [2]


def oversized_event(method: str):
    """A one-layer model, its mask and an allocation sized for a layer twice
    as large, whose target of 12 the 8-weight layer cannot hold."""
    model = build_model(parse_model_spec("mlp:4-2"), np.random.default_rng(0))
    model.layers[0].weight.grad = np.ones((2, 4), dtype=np.float32)
    mask = TopologyMask({"fc1": np.arange(8).reshape(2, 4) < 4})
    alloc = SparsityAllocation(0.5, (LayerBudget("fc1", 16, 0.75),))
    return model, mask, alloc, DstConfig(method=method, sparsity=0.5, total_steps=10)


def test_prune_count_range_checked():
    mask = np.array([True, True, False, False])
    assert removed(np.ones(4), mask, 0).size == 0
    assert removed(np.ones(4), mask, 2).tolist() == [0, 1]
    model, topo, alloc, cfg = oversized_event("set")
    with pytest.raises(ValueError, match="'fc1' cannot remove -4 of 4 active"):
        topology_update(model, topo, alloc, cfg, 1, np.random.default_rng(0))


def test_gradient_regrow_anchor():
    assert set(grown([0.9, 0.1, 0.5], np.zeros(3, dtype=bool), 2).tolist()) == {0, 2}


def test_gradient_regrow_tie_takes_lowest_index():
    assert grown([0.5, 0.5, 0.1], np.zeros(3, dtype=bool), 1).tolist() == [0]


def test_gradient_regrow_uses_magnitude():
    assert grown([-0.9, 0.1, 0.5], np.zeros(3, dtype=bool), 1).tolist() == [0]


def test_regrow_excludes_removed_positions():
    # the event removes 1 and 2, whose gradients are the largest; only
    # position 3 was inactive before it, so both rules must regrow 3
    w = np.array([9.0, 0.1, 0.2, 5.0])
    grad = np.array([0.0, 9.0, 8.0, 1.0])
    mask = np.array([True, True, True, False])
    for seed in range(20):
        gone, back = topology_event(w, grad, mask, 2, 1, "set", np.random.default_rng(seed))
        assert (gone.tolist(), back.tolist()) == ([1, 2], [3])
    gone, back = topology_event(w, grad, mask, 2, 1, "rigl")
    assert (gone.tolist(), back.tolist()) == ([1, 2], [3])


def test_regrow_count_range_checked():
    # a refused event draws nothing and leaves the mask as it was
    for method in ("set", "rigl"):
        model, topo, alloc, cfg = oversized_event(method)
        before = topo["fc1"].copy()
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="for a target of 12"):
            topology_update(model, topo, alloc, cfg, 1, rng)
        assert rng.bit_generator.state == state
        np.testing.assert_array_equal(topo["fc1"], before)


def test_random_regrow_only_picks_inactive():
    mask = np.zeros(30, dtype=bool)
    mask[:10] = True
    got = grown(np.zeros(30), mask, 5, "set", np.random.default_rng(5))
    assert np.all(got >= 10)
    assert np.unique(got).size == 5


# --- prune-rate schedule ---------------------------------------------------


def test_prune_rate_anchors():
    assert prune_rate(0.1, 0, 1000) == pytest.approx(0.1)
    assert prune_rate(0.1, 500, 1000) == pytest.approx(0.099309, abs=1e-6)
    assert prune_rate(0.1, 1000, 1000) == 0.0


def test_prune_rate_range_checked():
    with pytest.raises(ValueError):
        prune_rate(0.1, -1, 10)
    with pytest.raises(ValueError):
        prune_rate(0.1, 11, 10)


def test_set_update_size_anchor():
    # 10-weight layer, 5 active, p = 0.2 -> round(0.2 * 5) = 1 swap
    assert round(0.2 * 5) == 1


# --- randomized cross-checks ----------------------------------------------


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=0, max_value=10_000))
def test_prune_then_regrow_preserves_budget(seed):
    r = np.random.default_rng(seed)
    n = int(r.integers(12, 65))
    mask = np.zeros(n, dtype=bool)
    k_active = int(r.integers(2, n))
    mask[r.choice(n, size=k_active, replace=False)] = True
    w = r.standard_normal(n)
    # duplicate some magnitudes to stress tie handling
    if n >= 4:
        w[1] = w[0]
    k = int(r.integers(0, min(k_active, n - k_active) + 1))
    gone, back = topology_event(w, np.zeros(n), mask, k, k, "set", r)
    assert gone.size == back.size == k
    assert np.all(mask[gone]) and not np.any(mask[back])


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=0, max_value=10_000))
def test_pruned_positions_hold_smallest_magnitudes(seed):
    r = np.random.default_rng(seed)
    n = int(r.integers(12, 65))
    mask = r.random(n) < 0.7
    if mask.sum() < 2:
        mask[:2] = True
    w = np.round(r.standard_normal(n), 1)  # coarse grid forces ties
    k = int(r.integers(1, mask.sum() + 1))
    gone = removed(w, mask, k)
    kept = np.setdiff1d(np.flatnonzero(mask), gone)
    if kept.size and gone.size:
        assert np.abs(w[gone]).max() <= np.abs(w[kept]).min() + 1e-12


# --- linear-time selection against a sorting oracle -------------------------


def oracle_lowest(score: np.ndarray, positions: np.ndarray, k: int) -> list[int]:
    """First k positions of a full (score, position) sort with NaN ranked
    last, returned ascending; -0.0 and 0.0 compare equal."""
    flat = score.reshape(-1)

    def key(i):
        nan = bool(np.isnan(flat[i]))
        return nan, 0.0 if nan else flat[i], i

    return sorted(sorted(positions.tolist(), key=key)[:k])


SPECIALS = [0.0, -0.0, np.inf, -np.inf, np.nan]
# coarse values force ties; the specials stress the partition threshold
scores = st.one_of(st.sampled_from(SPECIALS),
                   st.floats(-2.0, 2.0).map(lambda v: round(v, 1)))


@st.composite
def selection_case(draw):
    shape = draw(array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=6))
    score = draw(arrays(np.float64, shape, elements=scores))
    mask = draw(arrays(np.bool_, shape))
    return score, mask


def assert_ascending_unique(idx: np.ndarray):
    assert idx.dtype == np.int64
    assert np.all(np.diff(idx) > 0)


@settings(deadline=None, max_examples=300)
@given(selection_case(), st.data())
def test_prune_matches_sorting_oracle(case, data):
    score, mask = case
    # the rule itself, on signed scores with infinities over every position
    k = data.draw(st.integers(0, score.size))
    got = _select_lowest(score.reshape(-1), k)
    assert_ascending_unique(got)
    assert got.tolist() == oracle_lowest(score, np.arange(score.size), k)
    # an event's removal: the k lowest |w| among the active positions
    active = np.flatnonzero(mask)
    k = data.draw(st.integers(0, active.size))
    got = removed(score, mask, k)
    assert got.tolist() == oracle_lowest(np.abs(score), active, k)


@settings(deadline=None, max_examples=300)
@given(selection_case(), st.data())
def test_gradient_regrow_matches_sorting_oracle(case, data):
    grad, mask = case
    active, free = np.flatnonzero(mask), np.flatnonzero(~mask)
    k_remove = data.draw(st.integers(0, active.size))
    k_grow = data.draw(st.integers(0, free.size))
    w = data.draw(arrays(np.float64, grad.shape, elements=st.floats(-1.0, 1.0)))
    gone, back = topology_event(w, grad, mask, k_remove, k_grow)
    assert gone.tolist() == oracle_lowest(np.abs(w), active, k_remove)
    # the k largest |grad| among the positions inactive before the event
    assert back.tolist() == oracle_lowest(-np.abs(grad), free, k_grow)


def test_selection_nan_threshold_keeps_the_budget():
    # two finite scores and three NaNs: asking for four must take both
    # finite ones and then the lowest-index NaNs, never fewer than four
    score = np.array([np.nan, 0.3, np.nan, 0.1, np.nan])
    assert _select_lowest(score, 4).tolist() == [0, 1, 2, 3]
    assert _select_lowest(score, 3).tolist() == [0, 1, 3]
    assert removed(score, np.ones(5, dtype=bool), 4).tolist() == [0, 1, 2, 3]
    grad = np.array([np.nan, 0.0, np.nan, np.inf])
    assert grown(grad, np.zeros(4, dtype=bool), 3).tolist() == [0, 1, 3]


def test_selection_signed_zeros_tie_on_index():
    assert _select_lowest(np.array([0.0, -0.0, 0.0, -0.0]), 2).tolist() == [0, 1]
    grad = np.array([1.0, -0.0, 0.0, 1.0])
    assert grown(grad, np.zeros(4, dtype=bool), 3).tolist() == [0, 1, 3]


def test_selection_count_endpoints():
    score = np.array([[np.nan, 2.0], [-np.inf, 0.0]])
    mask = np.array([[True, True], [False, True]])
    assert _select_lowest(score.reshape(-1), 0).tolist() == []
    assert _select_lowest(score.reshape(-1), 4).tolist() == [0, 1, 2, 3]
    assert removed(score, mask, 0).tolist() == []
    assert removed(score, mask, 3).tolist() == [0, 1, 3]
    assert grown(score, ~mask, 3).tolist() == [0, 1, 3]
    assert grown(score, ~mask, 0).tolist() == []
