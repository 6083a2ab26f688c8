"""Allocation math, mask bookkeeping, and prune/regrow selection rules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from dstforge.models import ArchDescriptor, LayerSpec, build_mlp, descriptor_library
from dstforge.sparsity import (
    TopologyMask,
    _prune_by_score,
    allocate_erk,
    allocate_uniform,
    apply_mask,
    gradient_regrow,
    init_topology,
    magnitude_prune,
    mask_shapes,
    prune_rate,
    random_regrow,
)


def two_layer_desc() -> ArchDescriptor:
    conv = LayerSpec("conv1", "conv", 16, 16, 3, 3, 8, 8)
    lin = LayerSpec("fc1", "linear", 4, 4, 1, 1, 1, 1)
    return ArchDescriptor("toy", (16, 8, 8), 4, (conv, lin))


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
    model = build_mlp((6, 4, 2), np.random.default_rng(1))
    model.layers[0].weight.momentum[:] = 1.0
    mask = TopologyMask({"fc1": np.zeros((4, 6), dtype=bool), "fc2": np.ones((2, 4), dtype=bool)})
    apply_mask(model, mask)
    assert np.all(model.layers[0].weight.data == 0.0)
    assert np.all(model.layers[0].weight.momentum == 0.0)
    assert np.any(model.layers[1].weight.data != 0.0)


def test_mask_shapes_covers_sparsifiable_layers():
    model = build_mlp((6, 4, 2), np.random.default_rng(0))
    assert mask_shapes(model) == {"fc1": (4, 6), "fc2": (2, 4)}


def test_mask_accounting():
    m = TopologyMask({"a": np.array([[True, False], [True, True]]),
                      "b": np.array([False, False, True])})
    assert m.active_count("a") == 3
    assert m.total_active() == 4
    assert m.total_weights() == 7
    assert m.global_density() == pytest.approx(4 / 7)


# --- selection rules -------------------------------------------------------


def test_magnitude_prune_anchor():
    w = np.array([0.1, -0.5, 0.2])
    mask = np.ones(3, dtype=bool)
    assert magnitude_prune(w, mask, 1).tolist() == [0]


def test_magnitude_prune_tie_takes_lowest_index():
    w = np.array([0.9, 0.8, 0.3, 0.7, 0.6, 0.3])
    mask = np.ones(6, dtype=bool)
    assert magnitude_prune(w, mask, 1).tolist() == [2]
    assert magnitude_prune(w, mask, 2).tolist() == [2, 5]


def test_magnitude_prune_ignores_inactive():
    w = np.array([0.01, 0.5, 0.4])
    mask = np.array([False, True, True])
    assert magnitude_prune(w, mask, 1).tolist() == [2]


def test_prune_count_range_checked():
    w = np.ones(4)
    mask = np.array([True, True, False, False])
    with pytest.raises(ValueError):
        magnitude_prune(w, mask, 3)
    with pytest.raises(ValueError):
        magnitude_prune(w, mask, -1)
    assert magnitude_prune(w, mask, 0).size == 0


def test_gradient_regrow_anchor():
    grad = np.array([0.9, 0.1, 0.5])
    mask = np.zeros(3, dtype=bool)
    got = set(gradient_regrow(mask, 2, grad).tolist())
    assert got == {0, 2}


def test_gradient_regrow_tie_takes_lowest_index():
    grad = np.array([0.5, 0.5, 0.1])
    mask = np.zeros(3, dtype=bool)
    assert gradient_regrow(mask, 1, grad).tolist() == [0]


def test_gradient_regrow_uses_magnitude():
    grad = np.array([-0.9, 0.1, 0.5])
    mask = np.zeros(3, dtype=bool)
    assert gradient_regrow(mask, 1, grad).tolist() == [0]


def test_regrow_excludes_removed_positions():
    mask = np.array([True, False, False, False])
    removed = np.array([1, 2], dtype=np.int64)
    for _ in range(20):
        got = random_regrow(mask, 1, np.random.default_rng(_), exclude=removed)
        assert got.tolist() == [3]
    grad = np.array([0.0, 9.0, 8.0, 1.0])
    assert gradient_regrow(mask, 1, grad, exclude=removed).tolist() == [3]


def test_regrow_count_range_checked():
    mask = np.array([True, True, False])
    with pytest.raises(ValueError):
        random_regrow(mask, 2, np.random.default_rng(0))
    with pytest.raises(ValueError):
        gradient_regrow(mask, 2, np.zeros(3))


def test_random_regrow_only_picks_inactive():
    rng = np.random.default_rng(5)
    mask = np.zeros(30, dtype=bool)
    mask[:10] = True
    got = random_regrow(mask, 5, rng)
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
    removed = magnitude_prune(w, mask, k)
    mask2 = mask.copy()
    mask2.reshape(-1)[removed] = False
    grown = random_regrow(mask2, k, r, exclude=removed)
    mask2.reshape(-1)[grown] = True
    assert mask2.sum() == mask.sum()
    assert not np.intersect1d(removed, grown).size


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
    removed = magnitude_prune(w, mask, k)
    kept = np.setdiff1d(np.flatnonzero(mask), removed)
    if kept.size and removed.size:
        assert np.abs(w[removed]).max() <= np.abs(w[kept]).min() + 1e-12


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
    active = np.flatnonzero(mask)
    k = data.draw(st.integers(0, active.size))
    got = _prune_by_score(score, mask, k)
    assert_ascending_unique(got)
    assert got.tolist() == oracle_lowest(score, active, k)
    got = magnitude_prune(score, mask, k)
    assert_ascending_unique(got)
    assert got.tolist() == oracle_lowest(np.abs(score), active, k)


@settings(deadline=None, max_examples=300)
@given(selection_case(), st.data())
def test_gradient_regrow_matches_sorting_oracle(case, data):
    grad, mask = case
    free = np.flatnonzero(~mask)
    exclude = np.array(sorted(data.draw(st.sets(st.sampled_from(free.tolist()))
                                        if free.size else st.just(set()))), dtype=np.int64)
    cands = np.setdiff1d(free, exclude)
    k = data.draw(st.integers(0, cands.size))
    got = gradient_regrow(mask, k, grad, exclude=exclude)
    assert_ascending_unique(got)
    assert got.tolist() == oracle_lowest(-np.abs(grad), cands, k)


def test_selection_nan_threshold_keeps_the_budget():
    # two finite scores and three NaNs: asking for four must take both
    # finite ones and then the lowest-index NaNs, never fewer than four
    score = np.array([np.nan, 0.3, np.nan, 0.1, np.nan])
    mask = np.ones(5, dtype=bool)
    assert _prune_by_score(score, mask, 4).tolist() == [0, 1, 2, 3]
    assert _prune_by_score(score, mask, 3).tolist() == [0, 1, 3]
    grad = np.array([np.nan, 0.0, np.nan, np.inf])
    assert gradient_regrow(np.zeros(4, dtype=bool), 3, grad).tolist() == [0, 1, 3]


def test_selection_signed_zeros_tie_on_index():
    score = np.array([0.0, -0.0, 0.0, -0.0])
    mask = np.ones(4, dtype=bool)
    assert _prune_by_score(score, mask, 2).tolist() == [0, 1]
    grad = np.array([1.0, -0.0, 0.0, 1.0])
    assert gradient_regrow(np.zeros(4, dtype=bool), 3, grad).tolist() == [0, 1, 3]


def test_selection_count_endpoints():
    score = np.array([[np.nan, 2.0], [-np.inf, 0.0]])
    mask = np.array([[True, True], [False, True]])
    assert _prune_by_score(score, mask, 0).tolist() == []
    assert _prune_by_score(score, mask, 3).tolist() == [0, 1, 3]
    free = ~mask
    assert gradient_regrow(free, 3, score).tolist() == [0, 1, 3]
    assert gradient_regrow(free, 0, score).tolist() == []
