"""Independent reference computations and output checkers.

Nothing here imports dstforge: checkpoints and data files are parsed from
their documented byte layouts, and forward passes run in float64 plain
numpy. Every checker returns a list of error strings, empty when the output
holds; `selfcheck.py` feeds each one a deliberately wrong input.
"""

from __future__ import annotations

import json
import struct

import numpy as np

# Two top logits closer than this are a near tie: float32 and float64 forward
# passes may legitimately disagree on which one wins.
TIE_TOL = 1e-4
CHANCE_FLOOR = 0.3  # 3x chance on ten classes


# ---------------------------------------------------------------------------
# file parsers


def read_checkpoint(path: str) -> dict:
    """Parse a dstforge checkpoint: magic "DSTF", <HQI version/step/header
    length, JSON header, then per layer weight, bias, weight momentum, bias
    momentum as <f4 and, for masked layers, a <Q active count and a
    little-endian bitset."""
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:4] != b"DSTF":
        raise ValueError(f"{path}: bad magic")
    _, step, hlen = struct.unpack_from("<HQI", buf, 4)
    off = 18
    header = json.loads(buf[off : off + hlen])
    off += hlen
    layers = []

    def take(n):
        nonlocal off
        a = np.frombuffer(buf, dtype="<f4", count=n, offset=off)
        off += 4 * n
        return a

    for meta in header["layers"]:
        shape = tuple(meta["shape"])
        n = int(np.prod(shape))
        layer = {"name": meta["name"], "w": take(n).reshape(shape), "b": take(shape[0]),
                 "wm": take(n).reshape(shape), "bm": take(shape[0]), "mask": None}
        if meta["mask"]:
            (active,) = struct.unpack_from("<Q", buf, off)
            off += 8
            nbytes = (n + 7) // 8
            bits = np.frombuffer(buf, dtype=np.uint8, count=nbytes, offset=off)
            off += nbytes
            layer["mask"] = np.unpackbits(bits, bitorder="little", count=n).astype(bool).reshape(shape)
            layer["active"] = int(active)
        layers.append(layer)
    if off != len(buf):
        raise ValueError(f"{path}: {len(buf) - off} trailing bytes")
    return {"step": step, "spec": header["model_spec"], "layers": layers}


def read_image_file(path: str) -> tuple[np.ndarray, np.ndarray]:
    """(images float64 (n, c, h, w) in [0, 1], labels) from a persisted set:
    an IDX images block followed by an IDX labels block, or CIFAR records."""
    with open(path, "rb") as fh:
        buf = fh.read()
    if struct.unpack_from(">I", buf)[0] == 0x803:
        _, n, h, w = struct.unpack_from(">IIII", buf)
        imgs = np.frombuffer(buf, dtype=np.uint8, count=n * h * w, offset=16)
        off = 16 + n * h * w
        magic, n_lab = struct.unpack_from(">II", buf, off)
        if magic != 0x801 or n_lab != n:
            raise ValueError(f"{path}: bad labels block")
        labels = np.frombuffer(buf, dtype=np.uint8, count=n, offset=off + 8)
        return imgs.reshape(n, 1, h, w) / 255.0, labels.astype(np.int64)
    rec = np.frombuffer(buf, dtype=np.uint8).reshape(-1, 3073)
    return rec[:, 1:].reshape(-1, 3, 32, 32) / 255.0, rec[:, 0].astype(np.int64)


def read_idx_images(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        buf = fh.read()
    _, n, h, w = struct.unpack_from(">IIII", buf)
    return np.frombuffer(buf, dtype=np.uint8, count=n * h * w, offset=16).reshape(n, 1, h, w) / 255.0


def read_idx_labels(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        buf = fh.read()
    _, n = struct.unpack_from(">II", buf)
    return np.frombuffer(buf, dtype=np.uint8, count=n, offset=8).astype(np.int64)


def last_test_acc(metrics_path: str) -> float:
    with open(metrics_path) as fh:
        return json.loads(fh.read().splitlines()[-1])["test_acc"]


def read_trajectory(path: str) -> list[tuple[int, float]]:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if lines[0] != "step,density":
        raise ValueError(f"{path}: bad header {lines[0]!r}")
    return [(int(s), float(d)) for s, d in (ln.split(",") for ln in lines[1:])]


# ---------------------------------------------------------------------------
# forward pass


def _conv3x3_same(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (3, 3), axis=(2, 3))  # n c h w 3 3
    y = np.tensordot(win, w, axes=([1, 4, 5], [1, 2, 3]))  # n h w o
    return y.transpose(0, 3, 1, 2) + b[None, :, None, None]


def _pool2(x: np.ndarray) -> np.ndarray:
    n, c, h, w = x.shape
    return x.reshape(n, c, h // 2, 2, w // 2, 2).max(axis=(3, 5))


def forward(ckpt: dict, images: np.ndarray) -> np.ndarray:
    """float64 logits of a parsed checkpoint: an MLP of relu linear layers, or
    conv3x3-relu-pool twice, then two linear layers."""
    p = [(ly["w"].astype(np.float64), ly["b"].astype(np.float64)) for ly in ckpt["layers"]]
    h = np.asarray(images, dtype=np.float64)
    if ckpt["spec"].startswith("small_convnet:"):
        for w, b in p[:2]:
            h = _pool2(np.maximum(_conv3x3_same(h, w, b), 0.0))
        p = p[2:]
    h = h.reshape(h.shape[0], -1)
    for w, b in p[:-1]:
        h = np.maximum(h @ w.T + b, 0.0)
    w, b = p[-1]
    return h @ w.T + b


def score(logits: np.ndarray, labels: np.ndarray) -> tuple[int, int]:
    """(correct predictions, near ties) of a batch of logits."""
    top2 = np.sort(logits, axis=1)[:, -2:]
    ties = int((top2[:, 1] - top2[:, 0] <= TIE_TOL * (1.0 + np.abs(top2[:, 1]))).sum())
    return int((logits.argmax(axis=1) == labels).sum()), ties


# ---------------------------------------------------------------------------
# checkers


def check_accuracy(what: str, claimed: float, correct: int, ties: int, n: int,
                   floor: float | None = None) -> list[str]:
    """A claimed accuracy must equal the reference count up to near ties, and
    optionally sit at or above `floor`."""
    errs = []
    if abs(claimed * n - correct) > ties + 1e-6:
        errs.append(f"{what}: claimed accuracy {claimed!r} on {n} images, reference forward "
                    f"gets {correct} correct ({ties} near ties)")
    if floor is not None and correct < floor * n:
        errs.append(f"{what}: reference accuracy {correct / n:.3f} is below {floor}")
    return errs


def check_masked_zero(what: str, ckpt: dict, expect_masks: bool) -> list[str]:
    """Masked-off weights and momentum entries are exactly zero; mask bit
    counts agree with the stored active counts."""
    errs = []
    masked = [ly for ly in ckpt["layers"] if ly["mask"] is not None]
    if expect_masks != bool(masked):
        errs.append(f"{what}: expected {'masks' if expect_masks else 'no masks'}, "
                    f"found {len(masked)} masked layers")
    for ly in masked:
        off = ~ly["mask"]
        if np.count_nonzero(ly["w"][off]) or np.count_nonzero(ly["wm"][off]):
            errs.append(f"{what}: layer {ly['name']} has nonzero weight or momentum under "
                        f"an inactive mask bit")
        if int(ly["mask"].sum()) != ly["active"]:
            errs.append(f"{what}: layer {ly['name']} mask has {int(ly['mask'].sum())} bits, "
                        f"header says {ly['active']}")
    return errs


def schedule_density(method: str, step: int, total: int, delta_t: int, budget: float,
                     init_density: float = 0.8) -> float:
    """Global density the method's schedule targets after the event at `step`
    (step 0 is the initial topology).

    set, rigl: the constant budget b. mest: b + b_s0 (1 - t/T)^3 with
    b_s0 = 0.1 b, where t is the step the regrown budget must last until
    (the next event, capped at T). granet: cubic decay from d_i to b over the
    first T/2 steps.
    """
    if method in ("set", "rigl"):
        return budget
    if method.startswith("mest"):
        t = 0 if step == 0 else min(step + delta_t, total)
        return min(1.0, budget + 0.1 * budget * (1.0 - t / total) ** 3)
    if method.startswith("granet"):
        horizon = total // 2
        if step >= horizon:
            return budget
        return budget + (init_density - budget) * (1.0 - step / horizon) ** 3
    raise ValueError(f"no schedule formula for {method!r}")


def check_trajectory(what: str, traj: list, method: str, total: int, delta_t: int,
                     budget: float, n_layers: int, n_weights: int) -> list[str]:
    """One sample at step 0 and one per event (multiples of delta_t below
    total); each density within one weight per layer of the formula."""
    errs = []
    steps = [s for s, _ in traj]
    want = [0] + list(range(delta_t, total, delta_t))
    if steps != want:
        errs.append(f"{what}: trajectory steps {steps}, schedule fires at {want}")
    tol = n_layers / n_weights
    for s, d in traj:
        f = schedule_density(method, s, total, delta_t, budget)
        if abs(d - f) > tol:
            errs.append(f"{what}: density {d!r} at step {s}, {method} schedule gives {f!r} "
                        f"(tolerance {tol:.2e})")
    return errs


def dense_train_flops(batch: int, steps: int, macs: int) -> float:
    """Dense account: forward 2 MACs, backward twice that, per example."""
    return 6.0 * batch * steps * macs


def mlp_sparse_train_flops(batch: int, total: int, traj: list, n_weights: int,
                           probe_events: int) -> float:
    """MLP account weighted by realized densities: each weight is one MAC per
    example, so a segment at density d costs 6 * batch * d * weights per step;
    every gradient probe adds one dense step."""
    flops = 0.0
    for i, (s0, d) in enumerate(traj):
        s1 = traj[i + 1][0] if i + 1 < len(traj) else total
        flops += (s1 - s0) * 6.0 * batch * d * n_weights
    return flops + probe_events * 6.0 * batch * n_weights


def check_flops(what: str, claimed: float, expected: float) -> list[str]:
    if abs(claimed - expected) > 1e-9 * expected:
        return [f"{what}: cost.json training_flops {claimed!r}, expected {expected!r}"]
    return []


def check_same_bytes(what: str, a: bytes, b: bytes) -> list[str]:
    if a == b:
        return []
    diff = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    return [f"{what}: {len(a)} vs {len(b)} bytes, first difference at offset {diff}"]


def check_corrupted(what: str, clean: np.ndarray, clean_labels: np.ndarray,
                    cells: dict) -> list[str]:
    """`cells` maps (kind, severity) to (images, labels). Pixels stay in
    [0, 1], shapes and labels are unchanged, and per kind the mean
    |corrupted - clean| never decreases as severity rises."""
    errs = []
    by_kind: dict[str, list] = {}
    for (kind, sev), (imgs, labels) in sorted(cells.items()):
        if imgs.shape != clean.shape:
            errs.append(f"{what}: {kind}-s{sev} shape {imgs.shape}, clean {clean.shape}")
            continue
        if not np.array_equal(labels, clean_labels):
            errs.append(f"{what}: {kind}-s{sev} labels differ from the clean set")
        if imgs.min() < 0.0 or imgs.max() > 1.0:
            errs.append(f"{what}: {kind}-s{sev} pixels outside [0, 1]")
        by_kind.setdefault(kind, []).append(
            (sev, float(np.abs(imgs.astype(np.float64) - clean).mean())))
    for kind, seq in by_kind.items():
        for (s0, d0), (s1, d1) in zip(seq, seq[1:]):
            if d1 < d0:
                errs.append(f"{what}: {kind} mean |corrupted - clean| falls from {d0:.6f} "
                            f"at severity {s0} to {d1:.6f} at severity {s1}")
    return errs
