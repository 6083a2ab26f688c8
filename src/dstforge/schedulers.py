"""Topology-update schedules: SET, RigL, MEST (soft memory bound), GraNet.

The sparse methods differ in only two choices, recorded per method in RULES:
how the global density moves over training (the schedule), and whether
regrowth picks the largest dense |grad| or draws at random. One kernel,
`topology_update`, runs every event from those two fields:

  fixed   density stays at the budget; each event removes and regrows
          round(p * target) weights per layer (set, rigl)
  mest    density decays from b + b_s0 to b (cubic soft bound); each event
          prunes to the base budget by |w| + lambda*|grad| and regrows to
          b + b_s(next event) (mest_r, mest_g)
  granet  density decays from d_i to the target along a cubic schedule; each
          event prunes round(p * target) below the scheduled count, then
          regrows to it (granet_r, granet_g)

An event lists each layer's active and inactive positions once, from the
mask before it. Removal takes the active positions with the lowest scores
(|w|, or |w| + lambda*|grad| under the MEST schedule); gradient regrowth the
inactive ones with the largest |grad|; both by `sparsity._select_lowest`
(ties on the lowest flat index). Random regrowth draws distinct inactive
positions from the run's generator. Drawing from the positions inactive
before the event never regrows one removed in it. A method that regrows or
scores by gradient reads each layer's `weight.grad` as the step's backward left
it: the minibatch gradient at the weights before that step's SGD update, at
every position, masked ones included. The FLOP account still charges such a
method one dense gradient probe per event, the backward a sparse-kernel
implementation would run to get those gradients; this implementation runs no
extra pass, so measured time and `cost.json` differ.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .data import atomic_write
from .models import Model
from .sparsity import SparsityAllocation, TopologyMask, _select_lowest, prune_rate


@dataclass(frozen=True)
class Rule:
    schedule: str  # "fixed", "mest" or "granet"
    grad_regrow: bool  # regrow the largest dense |grad|, else uniformly at random


RULES = {
    "set": Rule("fixed", grad_regrow=False),
    "rigl": Rule("fixed", grad_regrow=True),
    "mest_r": Rule("mest", grad_regrow=False),
    "mest_g": Rule("mest", grad_regrow=True),
    "granet_r": Rule("granet", grad_regrow=False),
    "granet_g": Rule("granet", grad_regrow=True),
}
METHODS = ("dense", *RULES)
# methods that read the step's dense weight gradient at every event: to regrow
# by it, or to score removal by |w| + lambda*|grad| as MEST does
PROBE_METHODS = tuple(m for m, rule in RULES.items()
                      if rule.grad_regrow or rule.schedule == "mest")


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
        # a NaN compares false with anything, so a check such as `if x < 0: refuse`
        # lets it through
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not np.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}, expected one of {METHODS}")
        if self.method == "dense":
            if self.sparsity != 0.0:
                raise ValueError(f"dense takes no sparsity, got {self.sparsity}")
        elif not 0.0 < self.sparsity < 1.0:
            raise ValueError(f"{self.method} needs a sparsity in (0, 1), got {self.sparsity}")
        if self.total_steps < 1:
            raise ValueError("total_steps must be >= 1")
        if self.delta_t < 1:
            raise ValueError("delta_t must be >= 1")
        if not 0.0 <= self.p0 <= 1.0:
            raise ValueError(f"p0 must be in [0, 1], got {self.p0}")
        if not 0.0 < self.init_density <= 1.0:
            raise ValueError(f"init_density must be in (0, 1], got {self.init_density}")
        if self.schedule == "granet" and self.init_density < self.budget:
            raise ValueError(
                f"init_density {self.init_density} below the target density {self.budget}; "
                f"the density schedule only decays")
        if self.soft_bound is not None and self.soft_bound < 0:
            raise ValueError(f"soft_bound must be >= 0, got {self.soft_bound}; "
                             f"MEST starts at or above its budget")
        if self.stop_step is not None and self.stop_step < 0:
            raise ValueError(f"stop_step must be >= 0, got {self.stop_step}")
        if self.horizon is not None and self.horizon < 1:
            raise ValueError("horizon must be >= 1 when given")
        if self.start_step < 0:
            raise ValueError("start_step must be >= 0")
        if self.mest_lambda < 0:
            raise ValueError("mest_lambda must be >= 0")

    @property
    def schedule(self) -> str:
        """The method's density schedule; dense stays fixed at density 1."""
        return RULES[self.method].schedule if self.method in RULES else "fixed"

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
        if self.schedule == "mest":
            return min(1.0, self.budget + self.b_s0)
        if self.schedule == "granet":
            return self.init_density
        return self.budget


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


def event_density(cfg: DstConfig, step: int) -> float:
    """Global density an event at `step` regrows to. MEST looks one update
    ahead: it regrows to the soft bound of the next event (or the end)."""
    if cfg.schedule == "mest":
        return cfg.budget + mest_soft_bound(cfg, min(step + cfg.delta_t, cfg.total_steps))
    if cfg.schedule == "granet":
        return granet_density(cfg, step)
    return cfg.budget


def synthetic_trajectory(cfg: DstConfig) -> BudgetTrajectory:
    """Closed-form density trajectory for cost estimates made without a run.

    Samples at the same points the trainer would (one per topology event) but
    takes each density straight from the schedule formula instead of counting
    a per-layer rounded mask, so it can run without weights or data.
    """
    traj = BudgetTrajectory()
    traj.record(0, cfg.initial_density())
    for step in range(cfg.delta_t, cfg.total_steps + 1, cfg.delta_t):
        if should_update(cfg, step):
            traj.record(step, min(1.0, event_density(cfg, step)))
    return traj


def topology_update(model: Model, mask: TopologyMask, alloc: SparsityAllocation,
                    cfg: DstConfig, step: int, rng: np.random.Generator):
    """One prune/regrow event, the same for every sparse method.

    Each layer's target is its share of the event density. Removal takes
    the layer down to a floor (the base budget for MEST, else round(p *
    target) below the target); regrowth fills it back up to the target. Both
    picks are made from the mask before the event (see the module docstring)
    and then written to it together.
    """
    rule = RULES.get(cfg.method)
    if rule is None:
        raise ValueError(f"no topology update for method {cfg.method!r}")
    targets = alloc.targets(at_density=event_density(cfg, step))
    if rule.schedule == "mest":
        floors = alloc.targets()
    else:
        p = prune_rate(cfg.p0, step, cfg.total_steps)
        floors = {name: t - int(round(p * t)) for name, t in targets.items()}
    if cfg.method in PROBE_METHODS:
        missing = next((layer.name for layer in model.layers
                        if layer.name in mask and layer.weight.grad is None), None)
        if missing is not None:
            raise ValueError(f"topology_update: {cfg.method} reads the step's weight gradient, "
                             f"but layer {missing!r} has none; call it after the backward")
    for layer in model.layers:
        if layer.name not in mask:
            continue
        flat = mask[layer.name].reshape(-1)
        active, free = np.flatnonzero(flat), np.flatnonzero(~flat)
        target = targets[layer.name]
        # removed positions are not regrown, so remove no more than can regrow
        k_remove = min(max(0, active.size - floors[layer.name]), flat.size - target)
        k_grow = target - (active.size - k_remove)
        if not (0 <= k_remove <= active.size and 0 <= k_grow <= free.size):
            raise ValueError(f"topology_update: layer {layer.name!r} cannot remove {k_remove} "
                             f"of {active.size} active and regrow {k_grow} of {free.size} "
                             f"inactive positions for a target of {target}")
        score = np.abs(layer.weight.data.reshape(-1)[active])
        if rule.schedule == "mest":
            score += cfg.mest_lambda * np.abs(layer.weight.grad.reshape(-1)[active])
        removed = active[_select_lowest(score, k_remove)]
        if rule.grad_regrow:
            grown = free[_select_lowest(-np.abs(layer.weight.grad.reshape(-1)[free]), k_grow)]
        else:  # no draw for an empty regrowth
            grown = rng.choice(free, k_grow, replace=False) if k_grow else free[:0]
        flat[removed] = False
        flat[grown] = True
