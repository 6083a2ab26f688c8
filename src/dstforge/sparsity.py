"""Sparsity budgets, topology masks, and the one selection rule.

`_select_lowest` is how a topology event (`schedulers.topology_update`)
ranks positions: the k lowest scores, ties broken by the lowest position,
NaN last and -0.0 equal to 0.0, in linear time (a partition, not a sort).
Removal ranks the active positions by |w|; gradient regrowth ranks the
inactive ones by -|g|, so it takes the k largest |g|.
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

    def densities(self, at_density: float | None = None) -> dict[str, float]:
        """Per-layer densities, optionally rescaled to another global density
        (a schedule's) and clamped at 1."""
        scale = 1.0 if at_density is None else at_density / self.global_density
        return {lb.name: min(1.0, lb.density * scale) for lb in self.layers}

    def targets(self, at_density: float | None = None) -> dict[str, int]:
        """Per-layer active-weight counts at `densities(at_density)`."""
        dens = self.densities(at_density)
        return {lb.name: int(round(dens[lb.name] * lb.weights)) for lb in self.layers}

    def total_weights(self) -> int:
        return sum(lb.weights for lb in self.layers)


class TopologyMask:
    """Boolean arrays (True = active), one per allocated weight layer; empty for dense."""

    def __init__(self, masks: dict[str, np.ndarray]):
        self.masks = {name: np.asarray(m, dtype=bool) for name, m in masks.items()}

    def __getitem__(self, name: str) -> np.ndarray:
        return self.masks[name]

    def __contains__(self, name: str) -> bool:
        return name in self.masks

    def names(self) -> tuple[str, ...]:
        return tuple(self.masks)

    def active_count(self, name: str) -> int:
        return int(np.count_nonzero(self.masks[name]))

    def total_active(self) -> int:
        return sum(int(np.count_nonzero(m)) for m in self.masks.values())

    def total_weights(self) -> int:
        return sum(m.size for m in self.masks.values())

    def global_density(self) -> float:
        return self.total_active() / self.total_weights() if self.masks else 1.0


def _erk_factor(s) -> float:
    # kernel-aware scaling; linear rows carry kh = kw = 1
    return 1.0 - (s.c_in + s.c_out + s.kw + s.kh) / (s.c_in * s.c_out * s.kw * s.kh)


def _allocate(desc: ArchDescriptor, sparsity: float, dense_overrides: tuple[str, ...],
              factor) -> SparsityAllocation:
    """Densities proportional to `factor(layer)`, scaled to meet the global
    budget 1 - sparsity over the conv and linear layers. Overridden layers
    are dense; any layer whose scaled density would exceed 1 is pinned dense
    and the remainder re-solved."""
    if not 0.0 <= sparsity < 1.0:
        raise ValueError(f"sparsity must be in [0, 1), got {sparsity}")
    b = 1.0 - sparsity
    layers = desc.sparsifiable_layers()
    names = {s.name for s in layers}
    for name in dense_overrides:
        if name not in names:
            raise ValueError(f"dense override {name!r} names no conv or linear layer")
    total = sum(s.weight_count() for s in layers)
    factors = {s.name: factor(s) for s in layers}
    dense = set(dense_overrides)
    pinned = sum(s.weight_count() for s in layers if s.name in dense)
    if b * total < pinned:
        raise ValueError(f"global density {b:g} infeasible with dense_overrides covering "
                         f"{pinned}/{total} weights")
    for s in layers:
        if s.name not in dense and factors[s.name] <= 0:
            raise ValueError(f"layer {s.name!r} is too small for this allocation (density "
                             f"factor {factors[s.name]:.3g}); list it in dense_overrides")

    while True:
        rhs = b * total - sum(s.weight_count() for s in layers if s.name in dense)
        divisor = sum(factors[s.name] * s.weight_count() for s in layers if s.name not in dense)
        eps = rhs / divisor if divisor > 0 else 0.0
        newly_dense = [s.name for s in layers
                       if s.name not in dense and eps * factors[s.name] > 1.0]
        if not newly_dense:
            break
        dense.update(newly_dense)

    out = tuple(
        LayerBudget(s.name, s.weight_count(),
                    1.0 if s.name in dense else eps * factors[s.name])
        for s in layers
    )
    return SparsityAllocation(b, out)


def allocate_uniform(desc: ArchDescriptor, sparsity: float,
                     dense_overrides: tuple[str, ...] = ()) -> SparsityAllocation:
    """Same density everywhere; overridden layers stay dense and the rest are
    renormalized so the global budget still comes out at 1 - sparsity."""
    return _allocate(desc, sparsity, dense_overrides, lambda s: 1.0)


def allocate_erk(desc: ArchDescriptor, sparsity: float,
                 dense_overrides: tuple[str, ...] = ()) -> SparsityAllocation:
    """Kernel-shaped Erdos-Renyi allocation: layer densities proportional to
    1 - (n_in + n_out + w + h)/(n_in * n_out * w * h)."""
    return _allocate(desc, sparsity, dense_overrides, _erk_factor)


DENSE = SparsityAllocation(1.0, ())  # dense training: no layer is allocated
ALLOCATORS = {"uniform": allocate_uniform, "erk": allocate_erk}  # by sparsity_dist / --dist


def mask_shapes(model: Model) -> dict[str, tuple[int, ...]]:
    return {layer.name: layer.weight.data.shape for layer in model.layers}


def init_topology(alloc: SparsityAllocation, shapes: dict[str, tuple[int, ...]],
                  rng: np.random.Generator,
                  at_density: float | None = None) -> TopologyMask:
    """Random initial topology at the allocation's densities (DENSE: none, no draws).

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


def prune_rate(p0: float, step: int, total_steps: int) -> float:
    """Polynomial decay p0 * (1 - step/total) ** 0.01."""
    if not 0 <= step <= total_steps:
        raise ValueError(f"prune_rate: step {step} outside [0, {total_steps}]")
    return p0 * (1.0 - step / total_steps) ** 0.01
