"""SGD with momentum and the two learning-rate schedules used by the runs."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .tensor import Parameter


def sgd_momentum_step(params: Iterable[Parameter], lr: float, momentum: float = 0.9,
                      weight_decay: float = 0.0):
    """One coupled-weight-decay SGD step: v <- mu*v + (g + wd*w); w <- w - lr*v.

    Updates in place with one scratch array per parameter; `p.grad` is only
    read. Each operation rounds as in the formula (float addition commutes,
    so wd*w + g is g + wd*w).
    Parameters without a gradient (no backward reached them) raise, since that
    always indicates a wiring bug rather than a legitimate state. So do
    parameters without a momentum buffer (a model loaded for scoring), which
    must not train on as if their momentum were zero.
    """
    for p in params:
        if p.grad is None:
            raise ValueError(f"sgd_momentum_step: parameter {p.name!r} has no gradient")
        if p.momentum is None:
            raise ValueError(f"sgd_momentum_step: parameter {p.name!r} has no momentum buffer; "
                             f"it was loaded for scoring")
        dtype = p.data.dtype.type
        scratch = np.empty_like(p.data)
        p.momentum *= dtype(momentum)
        if weight_decay:
            np.multiply(p.data, dtype(weight_decay), out=scratch)
            scratch += p.grad
            p.momentum += scratch
        else:
            p.momentum += p.grad
        p.data -= np.multiply(p.momentum, dtype(lr), out=scratch)


STEP_EPOCHS = 30
STEP_FACTOR = 0.1


@dataclass(frozen=True)
class LrSchedule:
    """Learning-rate schedule constants.

    kind "cosine": base * 0.5 * (1 + cos(pi * step / total_steps)).
    kind "step": base * STEP_FACTOR ** floor(epoch / STEP_EPOCHS) with
    epoch = step // steps_per_epoch.
    """

    kind: str
    base_lr: float
    total_steps: int
    steps_per_epoch: int = 0

    def __post_init__(self):
        if self.kind not in ("cosine", "step"):
            raise ValueError(f"unknown lr schedule kind {self.kind!r}")
        if self.total_steps <= 0:
            raise ValueError("total_steps must be positive")
        if self.kind == "step" and self.steps_per_epoch <= 0:
            raise ValueError("step schedule needs steps_per_epoch")


def lr_at(schedule: LrSchedule, step: int) -> float:
    """Learning rate at an integer step. Steps beyond the horizon are a range error."""
    if step < 0 or step > schedule.total_steps:
        raise ValueError(f"lr_at: step {step} outside [0, {schedule.total_steps}]")
    if schedule.kind == "cosine":
        return schedule.base_lr * 0.5 * (1.0 + math.cos(math.pi * step / schedule.total_steps))
    epoch = step // schedule.steps_per_epoch
    return schedule.base_lr * STEP_FACTOR ** (epoch // STEP_EPOCHS)
