"""End-to-end acceptance suite.

Eight behaviors the package promises: published-scale cost tables, budget
trajectories that follow their closed forms, a sparse-beats-dense robustness
study, frequency-attenuation curve ordering, a sound numerical core, sparsity
selection oracles, bitwise determinism, and exact kernel heatmaps.

Checks that need real datasets (Fashion-MNIST in IDX form, CIFAR-10 binaries)
skip with a pointer to scripts/fetch_data.py when the files are absent;
everything else runs on bundled synthetic data.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import (
    MARGIN,
    check_param_grads,
    pool_gap_margin,
    relu_margin,
    toy_config,
    topology_event,
)
from test_sparsity import bisect_erk

from dstforge.checkpoint import load_checkpoint
from dstforge.cli import main
from dstforge.config import parse_config
from dstforge.models import (
    CSR_DENSITY_CROSSOVER,
    ArchDescriptor,
    LayerSpec,
    build_model,
    parse_model_spec,
)
from dstforge.schedulers import BudgetTrajectory, DstConfig, granet_density, mest_soft_bound
from dstforge.sparsity import allocate_erk, apply_mask, init_topology, mask_shapes, prune_rate
from dstforge.spectral import attenuate_images
from dstforge.study import find_idx_dataset, run_study
from dstforge.tensor import (
    Parameter,
    Tensor,
    conv2d_forward,
    flatten,
    linear_forward,
    maxpool2x2,
    relu,
    softmax_cross_entropy,
)
from dstforge.train import run_train


def _persistent_root() -> str:
    """Long runs (20-epoch studies, CIFAR training) cache here across sessions."""
    default = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "study-runs")
    return os.environ.get("DSTFORGE_STUDY_DIR", default)


def _cli_json(capsys, *argv) -> dict:
    assert main(list(argv)) == 0
    return json.loads(capsys.readouterr().out)


# ---------------------------------------------------------------------------
# 1. cost tables at published scale


def test_flops_vgg16_dense(capsys):
    doc = _cli_json(capsys, "flops", "vgg16-cifar", "--method", "dense",
                    "--epochs", "160", "--bs", "100")
    assert abs(doc["training_flops"] - 1.51e16) / 1.51e16 <= 0.02
    assert abs(doc["inference_flops"] - 6.30e8) / 6.30e8 <= 0.05


def test_flops_vgg16_set_half_density(capsys):
    doc = _cli_json(capsys, "flops", "vgg16-cifar", "--method", "set",
                    "--density", "0.5", "--epochs", "160", "--bs", "100")
    assert abs(doc["training_flops"] - 0.76e16) / 0.76e16 <= 0.03
    assert abs(doc["inference_flops"] - 3.17e8) / 3.17e8 <= 0.05


def test_flops_resnet34_dense(capsys):
    doc = _cli_json(capsys, "flops", "resnet34-cifar", "--method", "dense",
                    "--epochs", "160", "--bs", "100")
    assert abs(doc["training_flops"] - 5.57e16) / 5.57e16 <= 0.02
    assert abs(doc["inference_flops"] - 2.32e9) / 2.32e9 <= 0.05


# ---------------------------------------------------------------------------
# 2. budget trajectories follow their closed forms

TRAJ_TOTAL = 2000
TRAJ_DT = 100
TRAJ_WEIGHTS = 144 * 64 + 64 * 32 + 32 * 10
# per-layer integer rounding moves the global density by at most half a
# weight per layer; three layers plus slack
ROUND_TOL = 2.0 / TRAJ_WEIGHTS


def _trajectory_config(idx_dir: str, out_dir: str, method: str) -> str:
    return f"""[data]
dataset = blobs
format = idx
train = {idx_dir}/train-images-idx3-ubyte
train_labels = {idx_dir}/train-labels-idx1-ubyte
test = {idx_dir}/t10k-images-idx3-ubyte
test_labels = {idx_dir}/t10k-labels-idx1-ubyte
classes = 10

[train]
model = mlp:144-64-32-10
epochs = 100
seed = 3
lr = 0.05
bs = 75
lrs = step
wd = 1e-4
momentum = 0.9

[output]
dir = {out_dir}

[dst]
method = {method}
sparsity = 0.5
sparsity_dist = erk
delta_t = {TRAJ_DT}
p = 0.1
"""


@pytest.fixture(scope="module")
def trajectories(idx_dir, tmp_path_factory):
    root = tmp_path_factory.mktemp("traj")
    out = {}
    for method in ("set", "rigl", "mest_r", "granet_r"):
        run_dir = root / method
        run_train(parse_config(_trajectory_config(idx_dir, str(run_dir), method)))
        header, *rows = (run_dir / "trajectory.csv").read_text().splitlines()
        assert header == "step,density"
        out[method] = BudgetTrajectory([(int(s), float(d))
                                        for s, d in (row.split(",") for row in rows)])
    return out


def _expected_steps() -> list[int]:
    return [0] + list(range(TRAJ_DT, TRAJ_TOTAL, TRAJ_DT))


@pytest.mark.parametrize("method", ["set", "rigl"])
def test_fixed_budget_trajectory_is_flat(trajectories, method):
    traj = trajectories[method]
    assert [s for s, _ in traj.samples] == _expected_steps()
    first = traj.samples[0][1]
    assert first == pytest.approx(0.5, abs=ROUND_TOL)
    assert all(d == first for _, d in traj.samples)


def test_mest_trajectory_decays_soft_bound(trajectories):
    traj = trajectories["mest_r"]
    assert [s for s, _ in traj.samples] == _expected_steps()
    assert traj.samples[0][1] == pytest.approx(0.55, abs=ROUND_TOL)
    for step, density in traj.samples[1:]:
        nxt = min(step + TRAJ_DT, TRAJ_TOTAL)
        closed = 0.5 + 0.05 * (1.0 - nxt / TRAJ_TOTAL) ** 3
        assert density == pytest.approx(closed, abs=ROUND_TOL), f"step {step}"
    densities = [d for _, d in traj.samples]
    assert all(b <= a + 1e-12 for a, b in zip(densities, densities[1:]))
    assert densities[-1] == pytest.approx(0.5, abs=ROUND_TOL)


def test_granet_trajectory_tracks_cubic_schedule(trajectories):
    traj = trajectories["granet_r"]
    assert [s for s, _ in traj.samples] == _expected_steps()
    assert traj.samples[0][1] == pytest.approx(0.8, abs=ROUND_TOL)
    horizon = TRAJ_TOTAL // 2
    for step, density in traj.samples[1:]:
        if step >= horizon:
            closed = 0.5
        else:
            closed = 0.5 + 0.3 * (1.0 - step / horizon) ** 3
        assert density == pytest.approx(closed, abs=ROUND_TOL), f"step {step}"


# ---------------------------------------------------------------------------
# 3. desk-scale robustness study: sparse vs dense on corrupted test sets


@pytest.fixture(scope="session")
def study_result():
    data = find_idx_dataset()
    if data is None:
        pytest.skip(
            "IDX dataset not found: need train-images-idx3-ubyte, "
            "train-labels-idx1-ubyte, t10k-images-idx3-ubyte and "
            "t10k-labels-idx1-ubyte under $DSTFORGE_DATA or ./data; "
            "run scripts/fetch_data.py in a networked environment")
    return run_study(data, _persistent_root(), epochs=20)


def test_sparse_robustness_beats_dense(study_result):
    dense = study_result.robustness_mean("dense")
    assert study_result.robustness_mean("set_s50") >= dense
    assert study_result.robustness_mean("set_s95") >= dense + 0.01


# ---------------------------------------------------------------------------
# 4. frequency-attenuation curve ordering


def test_low_attenuation_curve_sits_below_high(study_result):
    for label in study_result.labels:
        for seed in study_result.seeds:
            low = study_result.ra[(label, seed, "low")].points
            high = study_result.ra[(label, seed, "high")].points
            wins = sum(1 for (_, a), (_, b) in zip(low, high) if a < b)
            assert wins >= 0.8 * len(low), f"{label} seed {seed}: {wins}/{len(low)}"


def test_sparse_keeps_accuracy_under_high_attenuation(study_result):
    dense = dict(study_result.ra_mean("dense", "high"))
    sparse = dict(study_result.ra_mean("set_s50", "high"))
    for r in study_result.radii:
        assert sparse[r] >= dense[r] - 0.005, f"radius {r}"
    assert np.mean(list(sparse.values())) >= np.mean(list(dense.values()))


# ---------------------------------------------------------------------------
# 5. numerical core: gradients, transforms, execution paths


def _random_mlp(seed: int):
    """Random relu MLP whose probe point keeps every relu input at least
    MARGIN away from the switch, so central differences stay one-sided."""
    for attempt in range(80):
        r = np.random.default_rng((seed, attempt))
        dims = [int(r.integers(4, 24)) for _ in range(int(r.integers(3, 5)))]
        bs = int(r.integers(2, 5))
        x = r.standard_normal((bs, dims[0]))
        labels = r.integers(0, dims[-1], bs)
        params = []
        for i in range(len(dims) - 1):
            params.append(Parameter(
                r.standard_normal((dims[i + 1], dims[i])) * 0.5, name=f"w{i}"))
            params.append(Parameter(
                r.standard_normal(dims[i + 1]) * 0.1, name=f"b{i}"))
        h, margin = x, np.inf
        for i in range(0, len(params) - 2, 2):
            pre = h @ params[i].data.T + params[i + 1].data
            margin = min(margin, relu_margin(pre))
            h = np.maximum(pre, 0.0)
        if margin > MARGIN:
            break
    else:
        raise AssertionError("no draw kept relu inputs away from the switch")

    def forward_loss():
        h = Tensor(x)
        for i in range(0, len(params) - 2, 2):
            h = relu(linear_forward(h, params[i], params[i + 1]))
        return softmax_cross_entropy(linear_forward(h, params[-2], params[-1]), labels)

    return params, forward_loss


def _random_conv_net(seed: int):
    """Random conv-pool-linear net drawn so the relu inputs and the pool
    winner margins both clear MARGIN at the probe point."""
    for attempt in range(80):
        r = np.random.default_rng((seed + 1000, attempt))
        c = int(r.integers(1, 4))
        f = int(r.integers(2, 6))
        classes = int(r.integers(3, 6))
        bs = int(r.integers(1, 4))
        x = r.standard_normal((bs, c, 6, 6))
        labels = r.integers(0, classes, bs)
        w1 = Parameter(r.standard_normal((f, c, 3, 3)) * 0.4, name="w1")
        b1 = Parameter(r.standard_normal(f) * 0.1, name="b1")
        w2 = Parameter(r.standard_normal((classes, f * 9)) * 0.4, name="w2")
        b2 = Parameter(r.standard_normal(classes) * 0.1, name="b2")
        pre = conv2d_forward(Tensor(x), w1, b1).data
        if relu_margin(pre) > MARGIN:
            if pool_gap_margin(np.maximum(pre, 0.0)) > MARGIN:
                break
    else:
        raise AssertionError("no draw kept the pool/relu switches clear")

    def forward_loss():
        h = maxpool2x2(relu(conv2d_forward(Tensor(x), w1, b1)))
        return softmax_cross_entropy(linear_forward(flatten(h), w2, b2), labels)

    return [w1, b1, w2, b2], forward_loss


def test_gradients_match_finite_differences_on_random_nets():
    for seed in range(20):
        params, forward_loss = (
            _random_conv_net if seed % 3 == 2 else _random_mlp)(seed)
        assert sum(p.data.size for p in params) <= 10_000
        check_param_grads(params, forward_loss)


def test_dft_round_trip_and_parseval():
    # r = 0 is the round trip through the spectrum; its output keeps every
    # pixel and, by Parseval, every bin's energy
    rng = np.random.default_rng(4)
    for h, w in ((16, 16), (15, 13), (28, 28), (12, 20)):
        img = rng.random((h, w)).astype(np.float32)
        for mode in ("low", "high"):
            back = attenuate_images(img, mode, 0)
            assert np.abs(back - img).max() <= 1e-5
            spatial = float(np.sum(img.astype(np.float64) ** 2))
            freq = float(np.sum(np.abs(np.fft.fft2(back.astype(np.float64))) ** 2)) / (h * w)
            assert abs(spatial - freq) / spatial <= 1e-4


SPARSE_PATH_CASES = [
    ("mlp:144-64-10", (32, 144)),
    ("small_convnet:3x16x16-10", (8, 3, 16, 16)),
]


def masked_logits(spec_str: str, shape: tuple, sparsity: float):
    """Dense and sparse-path logits of an ERK-masked model, and the names of
    its linear layers below the CSR crossover."""
    rng = np.random.default_rng(9)
    model = build_model(parse_model_spec(spec_str), rng)
    alloc = allocate_erk(model.descriptor(), sparsity)
    mask = init_topology(alloc, mask_shapes(model), np.random.default_rng(10))
    apply_mask(model, mask)
    for layer in model.layers:  # nonzero biases, which the CSR path adds itself
        layer.bias.data[...] = rng.uniform(-0.1, 0.1, layer.bias.data.shape)
    x = rng.random(shape).astype(np.float32)
    linear = {layer.name: layer.weight.data for layer in model.layers if layer.kind == "linear"}
    below = [name for name, w in linear.items()
             if np.count_nonzero(w) < CSR_DENSITY_CROSSOVER * w.size]
    return model.predict(x), model.predict(x, sparse=True), below


@pytest.mark.parametrize("spec_str,shape", SPARSE_PATH_CASES)
def test_masked_dense_and_sparse_paths_agree(spec_str, shape):
    # at ERK 0.5 every layer is above the crossover: the sparse path is the
    # dense one, to the byte
    dense_logits, sparse_logits, below = masked_logits(spec_str, shape, 0.5)
    assert below == []
    assert sparse_logits.tobytes() == dense_logits.tobytes()


@pytest.mark.parametrize("spec_str,shape", SPARSE_PATH_CASES)
def test_masked_sparse_path_below_the_crossover_agrees_with_dense(spec_str, shape):
    dense_logits, sparse_logits, below = masked_logits(spec_str, shape, 0.995)
    assert below == ["fc1", "fc2"]
    rel = np.abs(dense_logits - sparse_logits).max() / max(
        np.abs(dense_logits).max(), 1e-6)
    assert rel <= 1e-5


# ---------------------------------------------------------------------------
# 6. sparsity-engine oracles


def _random_descriptor(seed: int) -> ArchDescriptor:
    r = np.random.default_rng(seed)
    layers = []
    for i in range(int(r.integers(2, 5))):
        if r.random() < 0.5:
            k = int(r.choice([1, 3, 5]))
            layers.append(LayerSpec(f"conv{i}", "conv", int(r.integers(3, 40)),
                                    int(r.integers(3, 40)), k, k, 8, 8))
        else:
            layers.append(LayerSpec(f"fc{i}", "linear", int(r.integers(4, 200)),
                                    int(r.integers(4, 200)), 1, 1, 1, 1))
    return ArchDescriptor(f"rand{seed}", 10, tuple(layers))


def test_erk_matches_bisection_oracle_on_random_nets():
    for seed in range(5):
        desc = _random_descriptor(seed)
        for sparsity in (0.5, 0.9):
            alloc = allocate_erk(desc, sparsity)
            oracle = bisect_erk(desc, 1.0 - sparsity)
            for lb in alloc.layers:
                assert lb.density == pytest.approx(oracle[lb.name], abs=1e-6), \
                    f"seed {seed} sparsity {sparsity} {lb.name}"


def test_prune_and_regrow_match_brute_force_oracles():
    rng = np.random.default_rng(0)
    for trial in range(100):
        n = int(rng.integers(12, 65))
        w = rng.standard_normal(n)
        g = rng.standard_normal(n)
        if trial % 3 == 0:
            w = np.round(w, 1)  # force score ties
            g = np.round(g, 1)
        mask = rng.random(n) < 0.7
        if mask.sum() < 2:
            mask[:2] = True
        shape = (2, n // 2) if trial % 2 and n % 2 == 0 else (n,)

        k = int(rng.integers(0, mask.sum() + 1))
        candidates = np.flatnonzero(~mask).tolist()  # inactive before the event
        k2 = int(rng.integers(0, len(candidates) + 1))
        removed, grown = topology_event(w.reshape(shape), g.reshape(shape),
                                        mask.reshape(shape), k, k2)
        active = np.flatnonzero(mask)
        by_magnitude = sorted(active, key=lambda i: (abs(w[i]), i))
        assert sorted(removed.tolist()) == sorted(by_magnitude[:k]), f"trial {trial}"
        by_gradient = sorted(candidates, key=lambda i: (-abs(g[i]), i))
        assert sorted(grown.tolist()) == sorted(by_gradient[:k2]), f"trial {trial}"

        random_removed, random_grown = topology_event(
            w.reshape(shape), g.reshape(shape), mask.reshape(shape), k, k2, "set",
            np.random.default_rng(trial))
        assert sorted(random_removed.tolist()) == sorted(by_magnitude[:k]), f"trial {trial}"
        assert len(set(random_grown.tolist())) == k2
        assert set(random_grown.tolist()) <= set(candidates)


def test_prune_rate_endpoints_exact():
    assert prune_rate(0.3, 0, 1000) == 0.3
    assert prune_rate(0.3, 1000, 1000) == 0.0


def test_schedule_endpoints_exact():
    mest = DstConfig(method="mest_r", sparsity=0.5, total_steps=1000, delta_t=100)
    assert mest_soft_bound(mest, 0) == mest.b_s0 == 0.05
    assert mest_soft_bound(mest, 1000) == 0.0
    granet = DstConfig(method="granet_r", sparsity=0.5, total_steps=1000,
                       delta_t=100)
    assert granet_density(granet, 0) == 0.8
    assert granet_density(granet, 500) == 0.5
    assert granet_density(granet, 1000) == 0.5


# ---------------------------------------------------------------------------
# 7. determinism and persistence


def test_identical_runs_produce_identical_checkpoints(idx_dir, tmp_path):
    blobs = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        cfg = parse_config(toy_config(idx_dir, out, method="set", sparsity=0.5,
                                      epochs=1))
        run_train(cfg)
        with open(os.path.join(out, "final.ckpt"), "rb") as fh:
            blobs.append(fh.read())
    assert blobs[0] == blobs[1]


def test_resumed_run_is_bitwise_equal(idx_dir, tmp_path):
    full_out = str(tmp_path / "full")
    split_out = str(tmp_path / "split")
    run_train(parse_config(toy_config(idx_dir, full_out, method="set",
                                      sparsity=0.5, epochs=1)))
    split_cfg = parse_config(toy_config(idx_dir, split_out, method="set",
                                        sparsity=0.5, epochs=1))
    run_train(split_cfg, stop_after_step=13)
    run_train(split_cfg, resume_path=os.path.join(split_out, "step00000013.ckpt"))
    for name in ("final.ckpt", "trajectory.csv"):
        with open(os.path.join(full_out, name), "rb") as fa, \
             open(os.path.join(split_out, name), "rb") as fb:
            assert fa.read() == fb.read(), name


def _corrupt_in_subprocess(images: str, out_dir: str, threads: int) -> dict[str, bytes]:
    env = dict(os.environ, DSTFORGE_THREADS=str(threads))
    code = "import sys; from dstforge.cli import main; sys.exit(main(sys.argv[1:]))"
    r = subprocess.run(
        [sys.executable, "-c", code, "corrupt", images,
         "--kinds", "gaussian_noise,motion_blur", "--severities", "2,5",
         "--seed", "7", "--out", out_dir],
        env=env, capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    out = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = fh.read()
    return out


def test_corruption_is_byte_identical_across_runs_and_threads(idx_dir, tmp_path):
    images = f"{idx_dir}/t10k-images-idx3-ubyte"
    one = _corrupt_in_subprocess(images, str(tmp_path / "t1"), threads=1)
    four = _corrupt_in_subprocess(images, str(tmp_path / "t4"), threads=4)
    again = _corrupt_in_subprocess(images, str(tmp_path / "t1b"), threads=1)
    assert list(one) == list(four) == list(again)
    assert one == four == again


# ---------------------------------------------------------------------------
# 8. kernel heatmaps: exact totals, dense 3x3 kernels count 9


def _write_cifar_batch(path: str, imgs: np.ndarray, labels: np.ndarray):
    q = np.rint(imgs * 255.0).astype(np.uint8)
    with open(path, "wb") as fh:
        for i in range(len(labels)):
            fh.write(bytes([int(labels[i])]))
            fh.write(q[i].tobytes())


def _make_rgb_blobs(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 10, n)
    imgs = rng.random((n, 3, 32, 32)) * 0.3
    for i, k in enumerate(labels):
        cx = 4 + (int(k) % 5) * 5
        cy = 4 + (int(k) // 5) * 14
        imgs[i, int(k) % 3, cy:cy + 4, cx:cx + 4] += 0.7
    return np.clip(imgs, 0.0, 1.0), labels


def _convnet_config(train: str, test: str, out_dir: str, method: str,
                    epochs: int) -> str:
    dst = "" if method == "dense" else f"""
[dst]
method = set
sparsity = 0.5
sparsity_dist = erk
delta_t = 5
p = 0.1
"""
    return f"""[data]
dataset = blobs-cifar
format = cifar
train = {train}
test = {test}
classes = 10

[train]
model = small_convnet:3x32x32-10
epochs = {epochs}
seed = 1
lr = 0.05
bs = 50
lrs = step
wd = 1e-4
momentum = 0.9

[output]
dir = {out_dir}
{dst}"""


@pytest.fixture(scope="module")
def convnet_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("convnet")
    imgs, labels = _make_rgb_blobs(150, seed=1)
    timgs, tlabels = _make_rgb_blobs(60, seed=2)
    train = str(root / "train_batch.bin")
    test = str(root / "test_batch.bin")
    _write_cifar_batch(train, imgs, labels)
    _write_cifar_batch(test, timgs, tlabels)
    ckpts = {}
    for method, epochs in (("set", 3), ("dense", 1)):
        out = str(root / method)
        run_train(parse_config(_convnet_config(train, test, out, method, epochs)))
        ckpts[method] = os.path.join(out, "final.ckpt")
    return ckpts


def _heatmap_doc(capsys, ckpt: str, layer: str, tmp_path) -> dict:
    jsn = str(tmp_path / f"{layer}.json")
    assert main(["inspect", ckpt, "--layer", layer, "--json", jsn]) == 0
    capsys.readouterr()
    with open(jsn) as fh:
        return json.load(fh)


def test_heatmap_totals_equal_active_counts(convnet_runs, tmp_path, capsys):
    ckpt = convnet_runs["set"]
    mask = load_checkpoint(ckpt).mask()
    for name in ("conv1", "conv2", "fc1", "fc2"):
        doc = _heatmap_doc(capsys, ckpt, name, tmp_path)
        matrix = np.array(doc["matrix"])
        assert doc["total"] == int(matrix.sum()) == mask.active_count(name), name
        if name.startswith("conv"):
            assert matrix.max() <= 9  # 3x3 kernels
        else:
            # one weight per (output, input) pair: the matrix is the mask
            np.testing.assert_array_equal(matrix, mask[name])


def test_dense_heatmap_counts_are_uniformly_nine(convnet_runs, tmp_path, capsys):
    ckpt = convnet_runs["dense"]
    for name, c_out, c_in in (("conv1", 32, 3), ("conv2", 64, 32)):
        doc = _heatmap_doc(capsys, ckpt, name, tmp_path)
        mat = np.array(doc["matrix"])
        assert mat.shape == (c_out, c_in)
        assert np.all(mat == 9)
        assert doc["total"] == 9 * c_out * c_in


def _find_cifar() -> tuple[list[str], str] | None:
    root = os.environ.get("DSTFORGE_DATA") or "data"
    candidates = [root]
    if os.path.isdir(root):
        candidates += sorted(
            os.path.join(root, d) for d in os.listdir(root)
            if os.path.isdir(os.path.join(root, d)))
    for base in candidates:
        train = [os.path.join(base, f"data_batch_{i}.bin") for i in range(1, 6)]
        test = os.path.join(base, "test_batch.bin")
        if all(os.path.exists(p) for p in train) and os.path.exists(test):
            return train, test
    return None


def test_heatmap_totals_on_cifar_trained_convnet(tmp_path, capsys):
    found = _find_cifar()
    if found is None:
        pytest.skip(
            "CIFAR-10 binaries not found: need data_batch_1..5.bin and "
            "test_batch.bin under $DSTFORGE_DATA or ./data; run "
            "scripts/fetch_data.py in a networked environment")
    train, test = found
    run_dir = os.path.join(_persistent_root(), "smallconv-set50-cifar")
    os.makedirs(run_dir, exist_ok=True)
    text = f"""[data]
dataset = cifar10
format = cifar
train = {",".join(train)}
test = {test}
classes = 10

[train]
model = small_convnet:3x32x32-10
epochs = 3
seed = 1
lr = 0.05
bs = 100
lrs = step
wd = 5e-4
momentum = 0.9
eval_every = 3

[output]
dir = {run_dir}

[dst]
method = set
sparsity = 0.5
sparsity_dist = erk
delta_t = 500
p = 0.1
"""
    cfg_path = os.path.join(run_dir, "config.ini")
    ckpt = os.path.join(run_dir, "final.ckpt")
    stale = os.path.exists(cfg_path) and open(cfg_path).read() != text
    if stale or not os.path.exists(ckpt):
        with open(cfg_path, "w") as fh:
            fh.write(text)
        run_train(parse_config(text))
    ck = load_checkpoint(ckpt)
    mask = ck.mask()
    for name in ("conv1", "conv2", "fc1", "fc2"):
        doc = _heatmap_doc(capsys, ckpt, name, tmp_path)
        assert doc["total"] == mask.active_count(name), name
