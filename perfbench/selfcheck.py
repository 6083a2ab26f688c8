"""Show that every checker in oracle.py can fail.

Each case hands a checker one correct input, which must pass, and one input
with a single deliberate error, which must be caught. `run()` returns the
cases that did not behave; an empty list means every checker has teeth.
"""

from __future__ import annotations

import numpy as np

import oracle


def _accuracy():
    rng = np.random.default_rng(0)
    logits = rng.standard_normal((20, 10))
    labels = logits.argmax(axis=1)
    labels[:5] = (labels[:5] + 1) % 10
    correct, ties = oracle.score(logits, labels)
    claimed = correct / 20
    flipped = logits.copy()
    i = 7  # a correctly predicted row: make its runner-up win by a clear margin
    flipped[i, (labels[i] + 1) % 10] = flipped[i].max() + 1.0
    bad_correct, bad_ties = oracle.score(flipped, labels)
    return (oracle.check_accuracy("ok", claimed, correct, ties, 20, 0.3),
            oracle.check_accuracy("flipped prediction", claimed, bad_correct, bad_ties, 20))


def _floor():
    return (oracle.check_accuracy("ok", 0.5, 10, 0, 20, 0.3),
            oracle.check_accuracy("at chance", 0.1, 2, 0, 20, 0.3))


def _mask_layer():
    w = np.arange(1, 13, dtype=np.float32).reshape(3, 4)
    mask = w % 3 != 0
    w[~mask] = 0
    return {"layers": [{"name": "fc1", "w": w, "wm": w * 0.5, "mask": mask,
                        "active": int(mask.sum())}]}


def _mask(key="w"):
    bad = _mask_layer()
    ly = bad["layers"][0]
    ly[key] = ly[key].copy()
    ly[key][0, 2] = 1e-30  # the value 3 sits under an inactive bit
    return (oracle.check_masked_zero("ok", _mask_layer(), True),
            oracle.check_masked_zero(f"set bit under {key}", bad, True))


def _bytes():
    blob = bytes(range(256)) * 4
    changed = bytearray(blob)
    changed[517] ^= 1
    return (oracle.check_same_bytes("ok", blob, bytes(blob)),
            oracle.check_same_bytes("one byte", blob, bytes(changed)))


def _corrupted(swap=False, clip=False, relabel=False):
    rng = np.random.default_rng(1)
    clean = rng.random((4, 1, 6, 6)) * 0.5 + 0.25
    labels = np.arange(4)
    cells = {}
    for sev in (1, 2, 3):
        noisy = clean + rng.standard_normal(clean.shape) * 0.05 * sev
        cells[("gaussian_noise", sev)] = (np.clip(noisy, 0, 1), labels.copy())
    if swap:
        cells[("gaussian_noise", 1)], cells[("gaussian_noise", 3)] = (
            cells[("gaussian_noise", 3)], cells[("gaussian_noise", 1)])
    if clip:
        cells[("gaussian_noise", 2)][0][0, 0, 0, 0] = 1.01
    if relabel:
        cells[("gaussian_noise", 2)][1][1] = 3
    return oracle.check_corrupted("grid", clean, labels, cells)


def _trajectory():
    total, dt, b, n_layers, n_w = 20, 5, 0.5, 3, 1000
    good = [(s, oracle.schedule_density("granet_g", s, total, dt, b)) for s in (0, 5, 10, 15)]
    bad = list(good)
    bad[2] = (10, bad[2][1] + 2 * n_layers / n_w)
    args = ("granet_g", total, dt, b, n_layers, n_w)
    return (oracle.check_trajectory("ok", good, *args),
            oracle.check_trajectory("off density", bad, *args) + oracle.check_trajectory(
                "missing event", good[:-1], *args))


def _flops():
    traj = [(0, 0.55), (5, 0.52), (10, 0.5)]
    want = oracle.mlp_sparse_train_flops(100, 20, traj, 1000, 2)
    return (oracle.check_flops("ok", want, want),
            oracle.check_flops("off by 1e-6", want * (1 + 1e-6), want))


def _forward():
    """The reference conv against a direct loop over output pixels."""
    rng = np.random.default_rng(2)
    x = rng.standard_normal((1, 2, 4, 4))
    w = rng.standard_normal((3, 2, 3, 3))
    b = rng.standard_normal(3)
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    loop = np.empty((1, 3, 4, 4))
    for o in range(3):
        for i in range(4):
            for j in range(4):
                loop[0, o, i, j] = (xp[0, :, i : i + 3, j : j + 3] * w[o]).sum() + b[o]
    got = oracle._conv3x3_same(x, w, b)
    wrong = oracle._conv3x3_same(x, w[:, :, ::-1], b)  # convolution, not correlation
    ok = [] if np.allclose(got, loop) else ["reference conv disagrees with the loop"]
    return ok, ([] if np.allclose(wrong, loop) else ["flipped kernel caught"])


CASES = {
    "accuracy": _accuracy,
    "accuracy floor": _floor,
    "masked weight": _mask,
    "masked momentum": lambda: _mask("wm"),
    "checkpoint bytes": _bytes,
    "severity order": lambda: (_corrupted(), _corrupted(swap=True)),
    "pixel range": lambda: (_corrupted(), _corrupted(clip=True)),
    "labels": lambda: (_corrupted(), _corrupted(relabel=True)),
    "trajectory": _trajectory,
    "flop account": _flops,
    "reference conv": _forward,
}


def run() -> list[str]:
    problems = []
    for name, case in CASES.items():
        good, bad = case()
        if good:
            problems.append(f"self-check {name}: correct input rejected: {good}")
        if not bad:
            problems.append(f"self-check {name}: wrong input not caught")
    return problems
