"""A fixed plain-numpy step that measures how fast the machine runs right now.

On the shared 2-vCPU VM the benchmark was built on, the effective speed of
one core drifts by tens of percent over a minute (no steal time is reported
and CPU time equals wall time, so the guest cannot see the cause). The
benchmark times this step after every round and reports throughput scaled
by (measured step time / NOMINAL_S): throughput at a fixed machine speed.
The step never changes, so only dstforge moves the scaled figure. It does
not import dstforge.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.0025  # one step on the reference machine, 1 BLAS thread


class Reference:
    """Forward and backward of a 784-300-100-10 relu MLP on a batch of 100,
    float32, the shapes of the MLP workload; weights are never updated."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.random((100, 784), dtype=np.float32)
        self.y = rng.integers(0, 10, 100)
        self.ws = [(rng.standard_normal((o, i)) * 0.05).astype(np.float32)
                   for i, o in ((784, 300), (300, 100), (100, 10))]

    def step(self) -> float:
        hs = [self.x]
        for w in self.ws[:-1]:
            hs.append(np.maximum(hs[-1] @ w.T, 0))
        z = hs[-1] @ self.ws[-1].T
        p = np.exp(z - z.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(len(self.y)), self.y] -= 1
        g = p / len(self.y)
        norm = 0.0
        for k in range(len(self.ws) - 1, -1, -1):
            norm += float(np.abs(g.T @ hs[k]).sum())
            g = (g @ self.ws[k]) * (hs[k] > 0)
        return norm

    def seconds_per_step(self, n: int) -> float:
        t0 = time.perf_counter()
        for _ in range(n):
            self.step()
        return (time.perf_counter() - t0) / n
