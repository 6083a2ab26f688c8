"""Sparsity budgets, topology masks, and the prune/regrow primitives.

Selection rules are fully deterministic: magnitude pruning removes the k
smallest |w| among active positions with ties broken by ascending flat index,
gradient regrowth activates the k largest |g| among candidates with the same
tie rule, and random regrowth draws from the supplied generator. Selection is
linear-time (a partition, not a sort), NaN scores rank last, and every rule
returns its picks in ascending flat-index order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import ArchDescriptor, Model


@dataclass(frozen=True)
class LayerBudget:
    name: str
    weights: int
    density: float


@dataclass(frozen=True)
class SparsityAllocation:
    """Per-layer densities whose weighted mean hits the global budget."""

    global_density: float
    layers: tuple[LayerBudget, ...]

    def targets(self, at_density: float | None = None) -> dict[str, int]:
        """Per-layer active-weight targets, optionally rescaled to another
        global density (used by schedules that run above the base budget)."""
        scale = 1.0 if at_density is None else at_density / self.global_density
        return {
            lb.name: min(lb.weights, int(round(lb.density * scale * lb.weights)))
            for lb in self.layers
        }

    def total_weights(self) -> int:
        return sum(lb.weights for lb in self.layers)


class TopologyMask:
    """Boolean arrays (True = active), one per sparsifiable layer."""

    def __init__(self, masks: dict[str, np.ndarray]):
        self.masks = {name: np.asarray(m, dtype=bool) for name, m in masks.items()}

    def __getitem__(self, name: str) -> np.ndarray:
        return self.masks[name]

    def __contains__(self, name: str) -> bool:
        return name in self.masks

    def names(self) -> tuple[str, ...]:
        return tuple(self.masks)

    def active_count(self, name: str) -> int:
        return int(self.masks[name].sum())

    def total_active(self) -> int:
        return sum(int(m.sum()) for m in self.masks.values())

    def total_weights(self) -> int:
        return sum(m.size for m in self.masks.values())

    def global_density(self) -> float:
        return self.total_active() / self.total_weights()


def _budget_layers(desc: ArchDescriptor, dense_overrides: tuple[str, ...]):
    layers = desc.sparsifiable_layers()
    names = {s.name for s in layers}
    for name in dense_overrides:
        if name not in names:
            raise ValueError(f"dense override {name!r} is not a sparsifiable layer")
    return layers


def allocate_uniform(desc: ArchDescriptor, sparsity: float,
                     dense_overrides: tuple[str, ...] = ()) -> SparsityAllocation:
    """Same density everywhere; overridden layers stay dense and the rest are
    renormalized so the global budget still comes out at 1 - sparsity."""
    if not 0.0 <= sparsity < 1.0:
        raise ValueError(f"sparsity must be in [0, 1), got {sparsity}")
    b = 1.0 - sparsity
    layers = _budget_layers(desc, dense_overrides)
    total = sum(s.weight_count() for s in layers)
    dense_total = sum(s.weight_count() for s in layers if s.name in dense_overrides)
    rest_total = total - dense_total
    if rest_total > 0:
        d_rest = (b * total - dense_total) / rest_total
        if d_rest < 0 or d_rest > 1:
            raise ValueError(
                f"global density {b} infeasible with dense overrides covering "
                f"{dense_total}/{total} weights")
    else:
        d_rest = 1.0
    out = tuple(
        LayerBudget(s.name, s.weight_count(),
                    1.0 if s.name in dense_overrides else d_rest)
        for s in layers
    )
    return SparsityAllocation(b, out)


def _erk_factor(s) -> float:
    # kernel-aware scaling; linear layers take w = h = 1
    n_in, n_out = s.c_in, s.c_out
    w = s.kw if s.kind == "conv" else 1
    h = s.kh if s.kind == "conv" else 1
    return 1.0 - (n_in + n_out + w + h) / (n_in * n_out * w * h)


def allocate_erk(desc: ArchDescriptor, sparsity: float,
                 dense_overrides: tuple[str, ...] = ()) -> SparsityAllocation:
    """Kernel-shaped Erdos-Renyi allocation.

    Layer densities are proportional to 1 - (n_in + n_out + w + h)/(n_in *
    n_out * w * h), rescaled to meet the global budget; any layer whose scaled
    density would exceed 1 is pinned dense and the remainder re-solved.
    """
    if not 0.0 <= sparsity < 1.0:
        raise ValueError(f"sparsity must be in [0, 1), got {sparsity}")
    b = 1.0 - sparsity
    layers = _budget_layers(desc, dense_overrides)
    total = sum(s.weight_count() for s in layers)
    factors = {s.name: _erk_factor(s) for s in layers}
    dense = set(dense_overrides)

    while True:
        rhs = b * total - sum(s.weight_count() for s in layers if s.name in dense)
        divisor = sum(factors[s.name] * s.weight_count() for s in layers if s.name not in dense)
        if divisor <= 0:
            eps = 0.0
        else:
            eps = rhs / divisor
        newly_dense = [s.name for s in layers
                       if s.name not in dense and eps * factors[s.name] > 1.0]
        if not newly_dense:
            break
        dense.update(newly_dense)
    if eps < 0:
        raise ValueError(f"global density {b} infeasible with dense overrides")

    out = tuple(
        LayerBudget(s.name, s.weight_count(),
                    1.0 if s.name in dense else eps * factors[s.name])
        for s in layers
    )
    return SparsityAllocation(b, out)


def mask_shapes(model: Model) -> dict[str, tuple[int, ...]]:
    return {layer.name: layer.weight.data.shape
            for layer in model.layers if layer.sparsifiable}


def init_topology(alloc: SparsityAllocation, shapes: dict[str, tuple[int, ...]],
                  rng: np.random.Generator,
                  at_density: float | None = None) -> TopologyMask:
    """Random initial topology at the allocation's densities.

    `at_density` rescales the whole allocation (methods that open with a
    looser budget than the final one start here).
    """
    masks = {}
    targets = alloc.targets(at_density)
    for lb in alloc.layers:
        shape = shapes[lb.name]
        n = int(np.prod(shape))
        if n != lb.weights:
            raise ValueError(f"layer {lb.name}: allocation sized {lb.weights}, weights sized {n}")
        k = targets[lb.name]
        m = np.zeros(n, dtype=bool)
        if k:
            m[rng.choice(n, size=k, replace=False)] = True
        masks[lb.name] = m.reshape(shape)
    return TopologyMask(masks)


def apply_mask(model: Model, mask: TopologyMask):
    """Zero inactive weight values and their momentum entries, in place."""
    for layer in model.layers:
        if layer.name in mask:
            m = mask[layer.name]
            layer.weight.data *= m
            layer.weight.momentum *= m


def _select_lowest(s: np.ndarray, k: int) -> np.ndarray:
    """Ascending positions of the k lowest entries of 1-D `s`, ties broken by
    lowest position; NaN ranks above everything, and -0.0 ties with 0.0.

    Linear time: partition to the k-th value, take everything strictly
    below it, then the lowest positions among the entries equal to it. This
    picks exactly the first k of a stable (score, position) sort.
    """
    if k == 0:
        return np.empty(0, dtype=np.int64)
    thr = np.partition(s, k - 1)[k - 1]
    if np.isnan(thr):  # fewer than k non-NaN entries: all of them, then NaNs
        tie = np.isnan(s)
        chosen = ~tie
    else:
        tie = s == thr
        chosen = s < thr
    chosen[np.flatnonzero(tie)[: k - np.count_nonzero(chosen)]] = True
    return np.flatnonzero(chosen)


def _prune_by_score(score: np.ndarray, mask: np.ndarray, k: int) -> np.ndarray:
    """Ascending flat indices of the k lowest-scoring active positions (ties:
    lowest flat index first)."""
    active_idx = np.flatnonzero(mask)
    if not 0 <= k <= active_idx.size:
        raise ValueError(f"prune count {k} outside [0, {active_idx.size}]")
    return active_idx[_select_lowest(score.reshape(-1)[active_idx], k)]


def magnitude_prune(weight: np.ndarray, mask: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k smallest-|w| active positions."""
    return _prune_by_score(np.abs(weight), mask, k)


def _regrow_candidates(mask: np.ndarray, exclude: np.ndarray | None) -> np.ndarray:
    free = ~mask.reshape(-1)
    if exclude is not None and exclude.size:
        free[exclude] = False
    return np.flatnonzero(free)


def random_regrow(mask: np.ndarray, k: int, rng: np.random.Generator,
                  exclude: np.ndarray | None = None) -> np.ndarray:
    """k inactive positions chosen uniformly, never from `exclude` (the
    positions removed in the same update)."""
    cands = _regrow_candidates(mask, exclude)
    if not 0 <= k <= cands.size:
        raise ValueError(f"regrow count {k} outside [0, {cands.size}]")
    if k == 0:
        return np.empty(0, dtype=np.int64)
    return np.sort(rng.choice(cands, size=k, replace=False)).astype(np.int64)


def gradient_regrow(mask: np.ndarray, k: int, grad: np.ndarray,
                    exclude: np.ndarray | None = None) -> np.ndarray:
    """Ascending indices of the k inactive positions with the largest |grad|
    (ties: lowest flat index)."""
    cands = _regrow_candidates(mask, exclude)
    if not 0 <= k <= cands.size:
        raise ValueError(f"regrow count {k} outside [0, {cands.size}]")
    return cands[_select_lowest(-np.abs(grad.reshape(-1)[cands]), k)]


def prune_rate(p0: float, step: int, total_steps: int) -> float:
    """Polynomial decay p0 * (1 - step/total) ** 0.01."""
    if not 0 <= step <= total_steps:
        raise ValueError(f"prune_rate: step {step} outside [0, {total_steps}]")
    return p0 * (1.0 - step / total_steps) ** 0.01
