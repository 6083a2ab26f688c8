"""Topology-update schedules: SET, RigL, MEST (soft memory bound), GraNet.

Every method shares the polynomial remove/regrow rate and the same per-layer
budget arithmetic; they differ in how removal is scored, how regrowth picks
positions, and how the global density moves over training:

  set      fixed budget, remove smallest |w|, regrow uniformly at random
  rigl     fixed budget, remove smallest |w|, regrow largest dense |grad|
  mest_r/g budget decays from b + b_s0 to b (cubic soft bound); removal is
           scored by |w| + lambda*|grad|
  granet_r/g density decays from d_i to the target along a cubic schedule;
           each update removes more than it regrows until the horizon
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass

import numpy as np

from .data import atomic_write
from .models import Model
from .sparsity import (
    SparsityAllocation,
    TopologyMask,
    _prune_by_score,
    gradient_regrow,
    magnitude_prune,
    prune_rate,
    random_regrow,
)
from .tensor import Tensor, backward, softmax_cross_entropy

METHODS = ("dense", "set", "rigl", "mest_r", "mest_g", "granet_r", "granet_g")


@dataclass(frozen=True)
class DstConfig:
    """Method selector plus every schedule constant, fixed for a whole run."""

    method: str = "dense"
    sparsity: float = 0.0
    total_steps: int = 1
    delta_t: int = 500
    p0: float = 0.1
    stop_step: int | None = None
    soft_bound: float | None = None  # b_s0; default 0.1 * (1 - sparsity)
    init_density: float = 0.8  # granet d_i
    horizon: int | None = None  # granet decay length in steps; default total//2
    start_step: int = 0  # granet t0
    mest_lambda: float = 1.0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}, expected one of {METHODS}")
        if self.method == "dense":
            if self.sparsity != 0.0:
                raise ValueError("dense method requires sparsity 0")
        elif not 0.0 <= self.sparsity < 1.0:
            raise ValueError(f"sparsity must be in [0, 1), got {self.sparsity}")
        if self.total_steps < 1:
            raise ValueError("total_steps must be >= 1")
        if self.delta_t < 1:
            raise ValueError("delta_t must be >= 1")
        if not 0.0 <= self.p0 <= 1.0:
            raise ValueError(f"p0 must be in [0, 1], got {self.p0}")
        if not 0.0 < self.init_density <= 1.0:
            raise ValueError(f"init_density must be in (0, 1], got {self.init_density}")
        if self.method in ("granet_r", "granet_g") and self.init_density < self.budget:
            raise ValueError(
                f"init_density {self.init_density} below the target density {self.budget}; "
                f"the density schedule only decays")
        if self.horizon is not None and self.horizon < 1:
            raise ValueError("horizon must be >= 1 when given")
        if self.start_step < 0:
            raise ValueError("start_step must be >= 0")
        if self.mest_lambda < 0:
            raise ValueError("mest_lambda must be >= 0")

    @property
    def budget(self) -> float:
        return 1.0 - self.sparsity

    @property
    def b_s0(self) -> float:
        return self.soft_bound if self.soft_bound is not None else 0.1 * self.budget

    @property
    def granet_horizon(self) -> int:
        return self.horizon if self.horizon is not None else self.total_steps // 2

    @property
    def stop(self) -> int:
        return self.stop_step if self.stop_step is not None else self.total_steps

    def initial_density(self) -> float:
        if self.method in ("mest_r", "mest_g"):
            return min(1.0, self.budget + self.b_s0)
        if self.method in ("granet_r", "granet_g"):
            return self.init_density
        return self.budget


def dst_digest(cfg: DstConfig) -> str:
    return hashlib.sha256(json.dumps(asdict(cfg), sort_keys=True).encode()).hexdigest()


class BudgetTrajectory:
    """Ordered (step, global density) samples, one per topology event."""

    def __init__(self, samples=()):
        self.samples: list[tuple[int, float]] = list(samples)

    def record(self, step: int, density: float):
        if self.samples and step <= self.samples[-1][0]:
            raise ValueError(f"trajectory steps must increase, got {step} after {self.samples[-1][0]}")
        self.samples.append((int(step), float(density)))

    def write_csv(self, path):
        with atomic_write(path) as fh:
            fh.write("step,density\n")
            for s, d in self.samples:
                fh.write(f"{s},{d!r}\n")

    @classmethod
    def read_csv(cls, path) -> "BudgetTrajectory":
        traj = cls()
        with open(path) as fh:
            header = fh.readline().strip()
            if header != "step,density":
                raise ValueError(f"not a trajectory csv: header {header!r}")
            for line in fh:
                s, d = line.strip().split(",")
                traj.record(int(s), float(d))
        return traj


def should_update(cfg: DstConfig, step: int) -> bool:
    """Topology events fire on multiples of delta_t, never at step 0, and
    stop at stop_step (exclusive)."""
    if cfg.method == "dense":
        return False
    return step > 0 and step % cfg.delta_t == 0 and step < cfg.stop


def mest_soft_bound(cfg: DstConfig, step: int) -> float:
    """b_s(step) = b_s0 * (1 - step/total)^3."""
    if not 0 <= step <= cfg.total_steps:
        raise ValueError(f"mest_soft_bound: step {step} outside [0, {cfg.total_steps}]")
    return cfg.b_s0 * (1.0 - step / cfg.total_steps) ** 3


def granet_density(cfg: DstConfig, step: int) -> float:
    """Cubic decay from d_i to the target density over [t0, t0 + horizon]."""
    if not 0 <= step <= cfg.total_steps:
        raise ValueError(f"granet_density: step {step} outside [0, {cfg.total_steps}]")
    d_t = cfg.budget
    d_i = cfg.init_density
    t0, n = cfg.start_step, cfg.granet_horizon
    if step <= t0:
        return d_i
    if step >= t0 + n:
        return d_t
    return d_t + (d_i - d_t) * (1.0 - (step - t0) / n) ** 3


def synthetic_trajectory(cfg: DstConfig) -> BudgetTrajectory:
    """Closed-form density trajectory for cost estimates made without a run.

    Samples at the same points the trainer would (one per topology event) but
    takes each density straight from the schedule formula instead of counting
    a per-layer rounded mask, so it can run without weights or data.
    """
    traj = BudgetTrajectory()
    traj.record(0, cfg.initial_density())
    if cfg.method == "dense":
        return traj
    for step in range(cfg.delta_t, cfg.total_steps + 1, cfg.delta_t):
        if not should_update(cfg, step):
            continue
        if cfg.method in ("mest_r", "mest_g"):
            d = cfg.budget + mest_soft_bound(cfg, min(step + cfg.delta_t, cfg.total_steps))
        elif cfg.method in ("granet_r", "granet_g"):
            d = granet_density(cfg, step)
        else:
            d = cfg.budget
        traj.record(step, min(1.0, d))
    return traj


def _dense_grads(model: Model, batch) -> dict[str, np.ndarray]:
    """Weight gradients of the batch loss with masking suspended for the
    gradient only: weight values stay masked, but grads cover every position."""
    x, y = batch
    model.zero_grad()
    loss = softmax_cross_entropy(model.forward(Tensor(x)), y)
    backward(loss)
    grads = {layer.name: layer.weight.grad.copy()
             for layer in model.layers if layer.sparsifiable}
    model.zero_grad()
    return grads


def set_update(model: Model, mask: TopologyMask, alloc: SparsityAllocation,
               cfg: DstConfig, step: int, rng: np.random.Generator):
    """Remove k smallest-|w|, regrow k uniformly at random; k = round(p * active)."""
    p = prune_rate(cfg.p0, step, cfg.total_steps)
    for layer in model.layers:
        if layer.name not in mask:
            continue
        m = mask[layer.name]
        k = int(round(p * mask.active_count(layer.name)))
        removed = magnitude_prune(layer.weight.data, m, k)
        flat = m.reshape(-1)
        flat[removed] = False
        grown = random_regrow(m, k, rng, exclude=removed)
        flat[grown] = True


def rigl_update(model: Model, mask: TopologyMask, alloc: SparsityAllocation,
                cfg: DstConfig, step: int, rng: np.random.Generator, batch):
    """Remove k smallest-|w|, regrow the k largest dense-gradient positions."""
    p = prune_rate(cfg.p0, step, cfg.total_steps)
    grads = _dense_grads(model, batch)
    for layer in model.layers:
        if layer.name not in mask:
            continue
        m = mask[layer.name]
        k = int(round(p * mask.active_count(layer.name)))
        removed = magnitude_prune(layer.weight.data, m, k)
        flat = m.reshape(-1)
        flat[removed] = False
        grown = gradient_regrow(m, k, grads[layer.name], exclude=removed)
        flat[grown] = True


def mest_update(model: Model, mask: TopologyMask, alloc: SparsityAllocation,
                cfg: DstConfig, step: int, rng: np.random.Generator, batch):
    """Score active weights by |w| + lambda*|g|, prune down to the base budget,
    then regrow up to b + b_s(next update step)."""
    next_step = min(step + cfg.delta_t, cfg.total_steps)
    d_next = cfg.budget + mest_soft_bound(cfg, next_step)
    t_base = alloc.targets()
    t_next = alloc.targets(at_density=d_next)
    grads = _dense_grads(model, batch)
    for layer in model.layers:
        if layer.name not in mask:
            continue
        m = mask[layer.name]
        active = mask.active_count(layer.name)
        k_remove = max(0, active - t_base[layer.name])
        score = np.abs(layer.weight.data) + cfg.mest_lambda * np.abs(grads[layer.name])
        removed = _prune_by_score(score, m, k_remove)
        flat = m.reshape(-1)
        flat[removed] = False
        k_grow = max(0, t_next[layer.name] - (active - k_remove))
        if cfg.method == "mest_g":
            grown = gradient_regrow(m, k_grow, grads[layer.name], exclude=removed)
        else:
            grown = random_regrow(m, k_grow, rng, exclude=removed)
        flat[grown] = True


def granet_update(model: Model, mask: TopologyMask, alloc: SparsityAllocation,
                  cfg: DstConfig, step: int, rng: np.random.Generator, batch=None):
    """Prune down to the cubic schedule's density plus the swap amount, then
    regrow the swap amount; while density decays, removals outnumber regrowth."""
    p = prune_rate(cfg.p0, step, cfg.total_steps)
    d_target = granet_density(cfg, step)
    t_target = alloc.targets(at_density=d_target)
    grads = _dense_grads(model, batch) if cfg.method == "granet_g" else None
    for layer in model.layers:
        if layer.name not in mask:
            continue
        m = mask[layer.name]
        active = mask.active_count(layer.name)
        tgt = t_target[layer.name]
        k_grow = int(round(p * tgt))
        k_remove = max(0, active - tgt + k_grow)
        if k_remove > active:
            raise RuntimeError(
                f"layer {layer.name}: schedule infeasible, must remove {k_remove} "
                f"of {active} active weights")
        removed = magnitude_prune(layer.weight.data, m, k_remove)
        flat = m.reshape(-1)
        flat[removed] = False
        k_grow = max(0, tgt - (active - k_remove))
        if cfg.method == "granet_g":
            grown = gradient_regrow(m, k_grow, grads[layer.name], exclude=removed)
        else:
            grown = random_regrow(m, k_grow, rng, exclude=removed)
        flat[grown] = True


def topology_update(model: Model, mask: TopologyMask, alloc: SparsityAllocation,
                    cfg: DstConfig, step: int, rng: np.random.Generator, batch):
    if cfg.method == "set":
        set_update(model, mask, alloc, cfg, step, rng)
    elif cfg.method == "rigl":
        rigl_update(model, mask, alloc, cfg, step, rng, batch)
    elif cfg.method in ("mest_r", "mest_g"):
        mest_update(model, mask, alloc, cfg, step, rng, batch)
    elif cfg.method in ("granet_r", "granet_g"):
        granet_update(model, mask, alloc, cfg, step, rng, batch)
    else:
        raise ValueError(f"no topology update for method {cfg.method!r}")
