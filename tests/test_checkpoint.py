"""Checkpoint format: exact round trips, determinism, and corruption errors."""

import json
import struct
import tracemalloc

import numpy as np
import pytest

from dstforge.checkpoint import (
    MAGIC,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from dstforge.models import build_model, parse_model_spec
from dstforge.schedulers import BudgetTrajectory, DstConfig
from dstforge.sparsity import TopologyMask, allocate_uniform, init_topology, mask_shapes

DIGEST = "0123456789abcdef" * 4  # a RunConfig.digest() stand-in
# the run state of a checkpoint written before any step: no trajectory, no loss
FRESH = {"trajectory": BudgetTrajectory(), "epoch_loss_sum": 0.0, "epoch_loss_count": 0}


def make_state(seed=1, with_mask=True):
    model = build_model(parse_model_spec("mlp:20-8-4"), np.random.default_rng(seed))
    model.layers[0].weight.momentum[:] = 0.25
    cfg = DstConfig(method="set" if with_mask else "dense",
                    sparsity=0.5 if with_mask else 0.0, total_steps=100)
    mask = TopologyMask({})  # dense: the empty topology
    if with_mask:
        alloc = allocate_uniform(model.descriptor(), 0.5)
        mask = init_topology(alloc, mask_shapes(model), np.random.default_rng((seed, 23)))
    rng = np.random.default_rng((seed, 23))
    rng.random(17)  # advance so the state is nontrivial
    return model, mask, cfg, rng


def test_round_trip_exact(tmp_path):
    model, mask, cfg, rng = make_state()
    traj = BudgetTrajectory([(0, 0.5), (10, 0.5)])
    p = tmp_path / "a.ckpt"
    save_checkpoint(p, model, mask, step=42, rng=rng, dst_cfg=cfg, seed=1, run_digest=DIGEST,
                    trajectory=traj, epoch_loss_sum=1.23456789, epoch_loss_count=7)
    ck = load_checkpoint(p)
    assert ck.step == 42
    assert ck.seed == 1
    assert ck.model_spec == "mlp:20-8-4"
    assert ck.run_digest == DIGEST
    assert ck.epoch_loss_sum == 1.23456789  # hex round trip is exact
    assert ck.epoch_loss_count == 7
    assert ck.trajectory == [(0, 0.5), (10, 0.5)]
    assert ck.rng_state == rng.bit_generator.state

    rebuilt = ck.build_model()
    for orig, new in zip(model.layers, rebuilt.layers):
        np.testing.assert_array_equal(orig.weight.data, new.weight.data)
        np.testing.assert_array_equal(orig.bias.data, new.bias.data)
        np.testing.assert_array_equal(orig.weight.momentum, new.weight.momentum)
        np.testing.assert_array_equal(orig.bias.momentum, new.bias.momentum)
    back = ck.mask()
    for name in mask.names():
        np.testing.assert_array_equal(back[name], mask[name])


def test_build_model_takes_the_stored_momenta_without_a_new_buffer(tmp_path):
    # the convnet's momenta are 2.18 MB of float32; building holds the loaded
    # arrays and allocates no zero-filled buffer only to overwrite it
    model = build_model(parse_model_spec("small_convnet:3x32x32-10"), np.random.default_rng(0))
    p = tmp_path / "c.ckpt"
    save_checkpoint(p, model, TopologyMask({}), step=1, rng=np.random.default_rng(0),
                    dst_cfg=DstConfig(method="dense", total_steps=1), seed=0,
                    run_digest=DIGEST, **FRESH)
    ck = load_checkpoint(p)
    tracemalloc.start()
    try:
        rebuilt = ck.build_model()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    for (_, w, b, wm, bm), layer in zip(ck.layers, rebuilt.layers, strict=True):
        assert layer.weight.data is w and layer.bias.data is b
        assert layer.weight.momentum is wm and layer.bias.momentum is bm


def _masked_convnet_state():
    """A 3x32x32 small convnet with a rigl mask at sparsity 0.5: a 4.43 MB
    checkpoint of 4.36 MB of float32 arrays and bitsets, whose masks take
    0.54 MB as bools once loaded."""
    model = build_model(parse_model_spec("small_convnet:3x32x32-10"), np.random.default_rng(0))
    alloc = allocate_uniform(model.descriptor(), 0.5)
    mask = init_topology(alloc, mask_shapes(model), np.random.default_rng(1))
    return model, mask, DstConfig(method="rigl", sparsity=0.5, total_steps=10)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        out = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def test_save_streams_each_array_from_its_own_buffer(tmp_path):
    # no bytes copy of any weight or momentum array: the largest, fc1's
    # 4096x128, alone is half a megabyte
    model, mask, cfg = _masked_convnet_state()
    p = tmp_path / "c.ckpt"
    _, peak = _traced_peak(lambda: save_checkpoint(
        p, model, mask, step=1, rng=np.random.default_rng(0), dst_cfg=cfg, seed=0,
        run_digest=DIGEST, **FRESH))
    assert peak < p.stat().st_size / 2


def test_load_reads_each_array_into_its_own_buffer(tmp_path):
    # the loaded arrays and masks are about 1.1 file sizes; holding the whole
    # file, or a second copy of any array or mask, would pass 1.5
    model, mask, cfg = _masked_convnet_state()
    p = tmp_path / "c.ckpt"
    save_checkpoint(p, model, mask, step=1, rng=np.random.default_rng(0), dst_cfg=cfg, seed=0,
                    run_digest=DIGEST, **FRESH)
    ck, peak = _traced_peak(lambda: load_checkpoint(p))
    assert peak < 1.5 * p.stat().st_size
    for (_, w, b, wm, bm), layer in zip(ck.layers, model.layers, strict=True):
        assert w.tobytes() == layer.weight.data.tobytes()
        assert wm.tobytes() == layer.weight.momentum.tobytes()
        assert b.tobytes() == layer.bias.data.tobytes()
        assert bm.tobytes() == layer.bias.momentum.tobytes()
        assert w.flags.owndata and w.dtype == np.float32
    for name in mask.names():
        assert ck.masks[name].dtype == bool
        assert np.array_equal(ck.masks[name], mask[name])


def test_a_load_for_scoring_reads_the_weights_and_masks_alone(tmp_path):
    # the momenta are half the float32 bytes: the weights, biases and masks
    # take about 0.62 file sizes loaded, a full load about 1.1
    model, mask, cfg = _masked_convnet_state()
    p = tmp_path / "c.ckpt"
    save_checkpoint(p, model, mask, step=1, rng=np.random.default_rng(0), dst_cfg=cfg, seed=0,
                    run_digest=DIGEST, **FRESH)
    ck, peak = _traced_peak(lambda: load_checkpoint(p, momenta=False))
    assert peak < 0.7 * p.stat().st_size
    full = load_checkpoint(p)
    assert (ck.step, ck.rng_state, ck.run_digest) == (full.step, full.rng_state, full.run_digest)
    for (name, w, b, wm, bm), (_, fw, fb, *_), layer in zip(
            ck.layers, full.layers, ck.build_model().layers, strict=True):
        assert w.tobytes() == fw.tobytes() and b.tobytes() == fb.tobytes()
        assert wm is None and bm is None
        assert layer.weight.data is w and layer.weight.momentum is None
        assert layer.bias.data is b and layer.bias.momentum is None
    for name in mask.names():
        assert np.array_equal(ck.masks[name], full.masks[name])


def test_rng_state_resumes_identically(tmp_path):
    model, mask, cfg, rng = make_state(seed=3)
    p = tmp_path / "a.ckpt"
    save_checkpoint(p, model, mask, step=0, rng=rng, dst_cfg=cfg, seed=3,
                    run_digest=DIGEST, **FRESH)
    future = rng.random(5)  # advance the live generator past the save point
    ck = load_checkpoint(p)
    rng2 = np.random.default_rng(0)
    rng2.bit_generator.state = ck.rng_state
    np.testing.assert_array_equal(rng2.random(5), future)


def test_identical_state_saves_identical_bytes(tmp_path):
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    model, mask, cfg, rng = make_state(seed=5)
    save_checkpoint(a, model, mask, step=9, rng=rng, dst_cfg=cfg, seed=5,
                    run_digest=DIGEST, **FRESH)
    model2, mask2, cfg2, rng2 = make_state(seed=5)
    save_checkpoint(b, model2, mask2, step=9, rng=rng2, dst_cfg=cfg2, seed=5,
                    run_digest=DIGEST, **FRESH)
    assert a.read_bytes() == b.read_bytes()


def test_dense_checkpoint_has_no_mask(tmp_path):
    model, mask, cfg, rng = make_state(with_mask=False)
    p = tmp_path / "d.ckpt"
    save_checkpoint(p, model, mask, step=1, rng=rng, dst_cfg=cfg, seed=1,
                    run_digest=DIGEST, **FRESH)
    ck = load_checkpoint(p)
    assert ck.mask().names() == ()
    assert ck.mask().global_density() == 1.0


def test_conv_model_round_trip(tmp_path):
    model = build_model(parse_model_spec("small_convnet:1x12x12-10"), np.random.default_rng(2))
    cfg = DstConfig(method="set", sparsity=0.5, total_steps=10)
    alloc = allocate_uniform(model.descriptor(), 0.5)
    mask = init_topology(alloc, mask_shapes(model), np.random.default_rng(0))
    rng = np.random.default_rng(8)
    p = tmp_path / "c.ckpt"
    save_checkpoint(p, model, mask, step=5, rng=rng, dst_cfg=cfg, seed=2,
                    run_digest=DIGEST, **FRESH)
    ck = load_checkpoint(p)
    rebuilt = ck.build_model()
    np.testing.assert_array_equal(rebuilt.layers[0].weight.data, model.layers[0].weight.data)
    assert ck.mask().active_count("conv1") == mask.active_count("conv1")


def test_not_a_checkpoint(tmp_path):
    p = tmp_path / "no.ckpt"
    p.write_bytes(b"PNG\x00" + bytes(40))
    with pytest.raises(CheckpointError, match="not a checkpoint"):
        load_checkpoint(p)
    with pytest.raises(CheckpointError, match="cannot read"):
        load_checkpoint(tmp_path / "absent.ckpt")


def test_version_mismatch(tmp_path):
    p = tmp_path / "v9.ckpt"
    p.write_bytes(MAGIC + struct.pack("<HQI", 9, 0, 2) + b"{}")
    with pytest.raises(CheckpointError, match="version 9"):
        load_checkpoint(p)


def test_truncated_payload(tmp_path):
    model, mask, cfg, rng = make_state()
    p = tmp_path / "t.ckpt"
    save_checkpoint(p, model, mask, step=1, rng=rng, dst_cfg=cfg, seed=1,
                    run_digest=DIGEST, **FRESH)
    data = p.read_bytes()
    p.write_bytes(data[:-20])
    with pytest.raises(CheckpointError):
        load_checkpoint(p)


def test_every_truncation_is_a_checkpoint_error(tmp_path):
    # cuts land in the fixed prefix, the header, every float array, each
    # mask's u64 active count and each mask's bitset
    model = build_model(parse_model_spec("mlp:3-9-2"), np.random.default_rng(2))
    alloc = allocate_uniform(model.descriptor(), 0.5)
    mask = init_topology(alloc, mask_shapes(model), np.random.default_rng(3))
    cfg = DstConfig(method="set", sparsity=0.5, total_steps=10)
    p = tmp_path / "whole.ckpt"
    save_checkpoint(p, model, mask, step=1, rng=np.random.default_rng(4), dst_cfg=cfg, seed=1,
                    run_digest=DIGEST, **FRESH)
    data = p.read_bytes()
    cut = tmp_path / "cut.ckpt"
    for end in range(len(data)):
        cut.write_bytes(data[:end])
        # a load for scoring seeks past each momentum array, and a cut
        # inside or before one must still be caught
        for momenta in (True, False):
            with pytest.raises(CheckpointError):
                load_checkpoint(cut, momenta=momenta)


@pytest.mark.parametrize("edit", [
    lambda h: {},
    lambda h: [],
    lambda h: {**h, "layers": {}},
    lambda h: {k: v for k, v in h.items() if k != "seed"},
    lambda h: {**h, "epoch_loss_sum": "not hex"},
    lambda h: {**h, "trajectory": [[0]]},
    lambda h: {**h, "layers": [{**h["layers"][0], "shape": [8, "20"]}] + h["layers"][1:]},
    lambda h: {**h, "layers": [{**h["layers"][0], "shape": [-8, 20]}] + h["layers"][1:]},
    lambda h: {**h, "layers": [{k: v for k, v in h["layers"][0].items() if k != "mask"}]
               + h["layers"][1:]},
    lambda h: {**h, "layers": [7]},
    lambda h: {**h, "model_spec": "mlp:20-x-4"},
    lambda h: {**h, "dst_config": {}},
], ids=["empty", "list", "layers-dict", "no-seed", "loss-sum", "trajectory",
        "shape-str", "shape-negative", "no-mask-flag", "layer-int", "model-spec", "no-method"])
def test_malformed_header_is_a_checkpoint_error(tmp_path, edit):
    model, mask, cfg, rng = make_state()
    p = tmp_path / "h.ckpt"
    save_checkpoint(p, model, mask, step=1, rng=rng, dst_cfg=cfg, seed=1,
                    run_digest=DIGEST, **FRESH)
    data = p.read_bytes()
    (hlen,) = struct.unpack_from("<I", data, 14)
    header = edit(json.loads(data[18 : 18 + hlen]))
    hbytes = json.dumps(header).encode()
    p.write_bytes(data[:14] + struct.pack("<I", len(hbytes)) + hbytes + data[18 + hlen :])
    with pytest.raises(CheckpointError) as e:
        load_checkpoint(p)
    assert "header" in str(e.value).replace(str(p), "")  # the path names the test


def test_trailing_bytes_detected(tmp_path):
    model, mask, cfg, rng = make_state()
    p = tmp_path / "t.ckpt"
    save_checkpoint(p, model, mask, step=1, rng=rng, dst_cfg=cfg, seed=1,
                    run_digest=DIGEST, **FRESH)
    p.write_bytes(p.read_bytes() + b"\x00\x00")
    for momenta in (True, False):
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(p, momenta=momenta)


def test_corrupt_header_detected(tmp_path):
    model, mask, cfg, rng = make_state()
    p = tmp_path / "h.ckpt"
    save_checkpoint(p, model, mask, step=1, rng=rng, dst_cfg=cfg, seed=1,
                    run_digest=DIGEST, **FRESH)
    data = bytearray(p.read_bytes())
    data[20] = 0xFF  # stomp on the JSON header
    p.write_bytes(bytes(data))
    with pytest.raises(CheckpointError):
        load_checkpoint(p)


def test_mask_bit_count_mismatch(tmp_path):
    model, mask, cfg, rng = make_state()
    p = tmp_path / "m.ckpt"
    save_checkpoint(p, model, mask, step=1, rng=rng, dst_cfg=cfg, seed=1,
                    run_digest=DIGEST, **FRESH)
    data = bytearray(p.read_bytes())
    # flip one bit in the final mask bitset (the file ends with mask bytes)
    data[-1] ^= 0x01
    p.write_bytes(bytes(data))
    for momenta in (True, False):
        with pytest.raises(CheckpointError, match="active bits"):
            load_checkpoint(p, momenta=momenta)


def test_build_model_shape_guard(tmp_path):
    model, mask, cfg, rng = make_state()
    p = tmp_path / "s.ckpt"
    save_checkpoint(p, model, mask, step=1, rng=rng, dst_cfg=cfg, seed=1,
                    run_digest=DIGEST, **FRESH)
    ck = load_checkpoint(p)
    ck.layers[0] = ("fc9",) + tuple(ck.layers[0][1:])
    with pytest.raises(CheckpointError, match="layers"):
        ck.build_model()
