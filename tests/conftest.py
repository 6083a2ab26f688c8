"""Shared fixtures: synthetic datasets on disk and pre-trained toy runs.

The synthetic task is deliberately learnable (class = position of a bright
blob) so short training runs separate cleanly from chance, while staying
small enough that whole-suite training time is a few minutes.
"""

import os
import struct

import numpy as np
import pytest

import dstforge.data
from dstforge.config import parse_config
from dstforge.data import ImageSet
from dstforge.models import Layer, Model, parse_model_spec
from dstforge.schedulers import DstConfig, topology_update
from dstforge.sparsity import LayerBudget, SparsityAllocation, TopologyMask
from dstforge.study import find_idx_dataset
from dstforge.tensor import Parameter, backward, softmax_cross_entropy
from dstforge.train import run_train

SIDE = 12
N_TRAIN = 1500
N_TEST = 400


def make_blob_set(n: int, seed: int, side: int = SIDE) -> tuple[np.ndarray, np.ndarray]:
    """Images (n, side, side) float32 in [0,1]; label = which blob is lit."""
    r = np.random.default_rng(seed)
    labels = r.integers(0, 10, n).astype(np.uint8)
    imgs = (r.random((n, side, side)) * 0.3).astype(np.float32)
    centers = [(2 + (k % 5) * 2, 2 + (k // 5) * 6) for k in range(10)]
    for i, y in enumerate(labels):
        cy, cx = centers[y]
        imgs[i, cy : cy + 2, cx : cx + 2] += 0.7
    return np.clip(imgs, 0.0, 1.0), labels


def write_idx_pair(dir_path: str, prefix: str, imgs: np.ndarray, labels: np.ndarray):
    q = np.rint(imgs * 255).astype(np.uint8)
    n, h, w = q.shape
    with open(os.path.join(dir_path, f"{prefix}-images-idx3-ubyte"), "wb") as fh:
        fh.write(struct.pack(">IIII", 0x803, n, h, w))
        fh.write(q.tobytes())
    with open(os.path.join(dir_path, f"{prefix}-labels-idx1-ubyte"), "wb") as fh:
        fh.write(struct.pack(">II", 0x801, n))
        fh.write(labels.tobytes())


class _DiskFull:
    """A file whose every write puts half its data on disk, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        raise OSError(28, "No space left on device")


def fail_atomic_writes(monkeypatch, suffix: str):
    """Make `data.atomic_write` fail partway through the first write to any
    temporary file whose path ends with `suffix`."""
    def failing_open(path, mode="r"):
        fh = open(path, mode)
        return _DiskFull(fh) if path.endswith(suffix) else fh

    monkeypatch.setattr(dstforge.data, "open", failing_open, raising=False)


@pytest.fixture(scope="session")
def idx_dir(tmp_path_factory) -> str:
    d = tmp_path_factory.mktemp("blobs")
    tr_i, tr_l = make_blob_set(N_TRAIN, seed=1)
    te_i, te_l = make_blob_set(N_TEST, seed=2)
    write_idx_pair(str(d), "train", tr_i, tr_l)
    write_idx_pair(str(d), "t10k", te_i, te_l)
    return str(d)


@pytest.fixture(scope="session")
def blob_test_set() -> ImageSet:
    imgs, labels = make_blob_set(N_TEST, seed=2)
    return ImageSet(images=imgs[:, None, :, :], labels=labels.astype(np.int64),
                    name="blobs-test")


def toy_config(idx_dir: str, out_dir: str, method: str = "dense",
               sparsity: float = 0.0, epochs: int = 2, seed: int = 1,
               delta_t: int = 15, extra_dst: str = "", model: str = "mlp:144-64-10",
               lr: float = 0.1, save_every: int = 0) -> str:
    text = f"""
[data]
dataset = blobs
format = idx
train = {idx_dir}/train-images-idx3-ubyte
train_labels = {idx_dir}/train-labels-idx1-ubyte
test = {idx_dir}/t10k-images-idx3-ubyte
test_labels = {idx_dir}/t10k-labels-idx1-ubyte
classes = 10

[train]
model = {model}
epochs = {epochs}
seed = {seed}
lr = {lr}
bs = 50
lrs = step
wd = 1e-4
momentum = 0.9

[output]
dir = {out_dir}
save_every = {save_every}
"""
    if method != "dense":
        text += f"""
[dst]
method = {method}
sparsity = {sparsity}
sparsity_dist = erk
delta_t = {delta_t}
p = 0.1
{extra_dst}
"""
    return text


@pytest.fixture(scope="session")
def set_run(idx_dir, tmp_path_factory):
    """A finished SET run: (RunConfig, final checkpoint path)."""
    out = str(tmp_path_factory.mktemp("set_run"))
    cfg = parse_config(toy_config(idx_dir, out, method="set", sparsity=0.5))
    ckpt = run_train(cfg)
    return cfg, ckpt


@pytest.fixture(scope="session")
def dense_run(idx_dir, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("dense_run"))
    cfg = parse_config(toy_config(idx_dir, out))
    ckpt = run_train(cfg)
    return cfg, ckpt


@pytest.fixture(scope="session")
def real_data():
    """Canonical IDX dataset paths when present, else None (tests skip)."""
    return find_idx_dataset()


def require_real_data(data):
    if data is None:
        pytest.skip(
            "needs the Fashion-MNIST IDX files under $DSTFORGE_DATA or ./data "
            "(run scripts/fetch_data.py in a networked environment)")


def numeric_grad(f, arr: np.ndarray, eps: float) -> np.ndarray:
    """Central difference quotient of scalar f with respect to every entry of
    arr, mutating arr in place while probing."""
    g = np.zeros_like(arr)
    flat = arr.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + eps
        hi = f()
        flat[i] = old - eps
        lo = f()
        flat[i] = old
        gf[i] = (hi - lo) / (2.0 * eps)
    return g


def layer_stack(*weights_and_biases) -> Model:
    """A model over (weight, bias) array pairs in forward order, held without
    a copy: a 4-d weight makes a conv layer (conv, pool, relu), a 2-d one a
    linear layer, named conv1.. and fc1.. as the trainable models name them.
    It has no spec, so it trains and infers but has no descriptor."""
    layers, counts = [], {"conv": 0, "linear": 0}
    for w, b in weights_and_biases:
        kind = "conv" if np.ndim(w) == 4 else "linear"
        counts[kind] += 1
        name = f"{'conv' if kind == 'conv' else 'fc'}{counts[kind]}"
        layers.append(Layer(name, kind, Parameter(w, name=f"{name}.weight"),
                            Parameter(b, name=f"{name}.bias")))
    return Model(None, layers)


def step_gradients(model: Model, x: np.ndarray, labels: np.ndarray) -> float:
    """The loss of one training step, as `train.run_train` takes it: forward
    with a tape, softmax cross-entropy, backward. The gradients land on the
    model's parameters."""
    model.zero_grad()
    tape = []
    loss, dlogits = softmax_cross_entropy(model.forward(x, tape), labels)
    backward(model.layers, tape, dlogits)
    return loss


def check_param_grads(model: Model, x: np.ndarray, labels: np.ndarray, tol=1e-3):
    """The gradients of a training step vs Richardson-extrapolated central
    differences of the loss, both in float64.

    Central differences are blind to one-sided slopes, so every probe point
    must keep relu and pool switches outside the difference bracket; call
    sites re-roll their random nets until `relu_margin`/`pool_gap_margin`
    clear MARGIN. The denominator floor holds near-zero gradient entries to
    an equivalent absolute bound.
    """
    step_gradients(model, x, labels)
    f = lambda: softmax_cross_entropy(model.forward(x), labels)[0]
    for p in model.parameters():
        analytic = p.grad.copy()
        coarse = numeric_grad(f, p.data, eps=1e-3)
        fine = numeric_grad(f, p.data, eps=5e-4)
        numeric = (4.0 * fine - coarse) / 3.0
        rel = np.abs(analytic - numeric) / np.maximum(
            np.maximum(np.abs(numeric), np.abs(analytic)), 1e-3)
        assert rel.max() <= tol, f"{p.name}: max rel err {rel.max():.2e}"


MARGIN = 0.01  # distance every relu input / pool runner-up must keep


def relu_margin(pre: np.ndarray) -> float:
    """Distance of the closest pre-activation to the relu switch."""
    return float(np.abs(pre).min())


def pool_gap_margin(activations: np.ndarray) -> float:
    """Smallest winner-vs-runner-up gap over 2x2 pooling windows.

    Windows whose winner is 0 are ignored: every cell's pre-activation is
    negative there (or relu_margin already rejected the point), so the pooled
    value is locally constant and carries no kink.
    """
    cells = np.stack([
        activations[..., 0::2, 0::2], activations[..., 0::2, 1::2],
        activations[..., 1::2, 0::2], activations[..., 1::2, 1::2]])
    s = np.sort(cells, axis=0)
    top, second = s[-1], s[-2]
    gaps = np.where(top > 0, top - second, np.inf)
    return float(gaps.min())


def topology_event(w: np.ndarray, g: np.ndarray, mask: np.ndarray, k_remove: int,
                   k_grow: int, method: str = "rigl",
                   rng: np.random.Generator | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Run `topology_update` on one layer holding weights `w`, gradient `g`
    and boolean `mask` (one shape), under a fixed schedule set up to remove
    exactly `k_remove` active positions and regrow exactly `k_grow` (rigl by
    gradient, set at random from `rng`); return the flat indices it
    deactivated and activated, read off the mask before and after.

    The schedule's target is t = active - k_remove + k_grow, and at step 0
    the prune rate is p0 = k_grow / t exactly, so the floor t - round(p0 * t)
    is active - k_remove.
    """
    before = np.asarray(mask, dtype=bool).reshape(-1)
    n, target = before.size, int(before.sum()) - k_remove + k_grow
    weight = Parameter(w, name="l.weight")
    weight.grad = g
    model = Model(parse_model_spec("mlp:1-2"), [Layer("l", "linear", weight, None)])
    topo = TopologyMask({"l": before.reshape(np.shape(mask)).copy()})
    alloc = SparsityAllocation(0.5, (LayerBudget("l", n, target / n),))
    cfg = DstConfig(method=method, sparsity=0.5, total_steps=10,
                    p0=k_grow / target if target else 0.0)
    topology_update(model, topo, alloc, cfg, 0, rng or np.random.default_rng(0))
    after = topo["l"].reshape(-1)
    return np.flatnonzero(before & ~after), np.flatnonzero(~before & after)
