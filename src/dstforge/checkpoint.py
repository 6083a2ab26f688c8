"""Binary checkpoints: weights, momentum, masks, RNG state, schedule digest.

Layout: magic "DSTF", u16 version, u64 step, u32 header length, JSON header,
then per layer (in header order) the weight, bias, and momentum arrays as
little-endian float32, and for masked layers a u64 active count followed by a
little-endian bitset. Everything needed to continue a run bit-exactly lives
here; nothing in the file depends on wall-clock time.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from .data import atomic_write
from .models import Model, build_model, parse_model_spec
from .schedulers import BudgetTrajectory, DstConfig, dst_digest
from .sparsity import TopologyMask

MAGIC = b"DSTF"
VERSION = 1


class CheckpointError(Exception):
    pass


@dataclass
class Checkpoint:
    version: int
    step: int
    model_spec: str
    seed: int
    rng_state: dict
    dst_digest: str
    dst_config: dict
    epoch_loss_sum: float
    epoch_loss_count: int
    trajectory: list
    layers: list  # (name, weight, bias, w_momentum, b_momentum, mask | None)

    def build_model(self) -> Model:
        """Reconstruct the trainable model with these exact weights."""
        model = build_model(parse_model_spec(self.model_spec), np.random.default_rng(0))
        by_name = {layer.name: layer for layer in model.layers}
        if set(by_name) != {name for name, *_ in self.layers}:
            raise CheckpointError("checkpoint layers do not match the model spec")
        for name, w, b, wm, bm, _ in self.layers:
            layer = by_name[name]
            if layer.weight.data.shape != w.shape:
                raise CheckpointError(
                    f"layer {name}: shape {w.shape} in file, model expects {layer.weight.data.shape}")
            layer.weight.data[...] = w
            layer.bias.data[...] = b
            layer.weight.momentum[...] = wm
            layer.bias.momentum[...] = bm
        return model

    def mask(self) -> TopologyMask | None:
        masks = {name: m for name, *_rest, m in self.layers if m is not None}
        return TopologyMask(masks) if masks else None


def _f32_bytes(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a, dtype="<f4").tobytes()


def save_checkpoint(path, model: Model, mask: TopologyMask | None, step: int,
                    rng: np.random.Generator, dst_cfg: DstConfig, seed: int,
                    trajectory: BudgetTrajectory | None = None,
                    epoch_loss_sum: float = 0.0, epoch_loss_count: int = 0):
    layer_meta = []
    blobs = []
    for layer in model.layers:
        has_mask = mask is not None and layer.name in mask
        layer_meta.append({
            "name": layer.name,
            "kind": layer.kind,
            "shape": list(layer.weight.data.shape),
            "mask": has_mask,
        })
        blobs.append(_f32_bytes(layer.weight.data))
        blobs.append(_f32_bytes(layer.bias.data))
        blobs.append(_f32_bytes(layer.weight.momentum))
        blobs.append(_f32_bytes(layer.bias.momentum))
        if has_mask:
            m = mask[layer.name].reshape(-1)
            blobs.append(struct.pack("<Q", int(m.sum())))
            blobs.append(np.packbits(m, bitorder="little").tobytes())

    header = {
        "version": VERSION,
        "model_spec": model.spec.to_string(),
        "seed": seed,
        "rng_state": _jsonable_rng(rng.bit_generator.state),
        "dst_digest": dst_digest(dst_cfg),
        "dst_config": _dst_dict(dst_cfg),
        "epoch_loss_sum": float(epoch_loss_sum).hex(),
        "epoch_loss_count": epoch_loss_count,
        "trajectory": trajectory.samples if trajectory is not None else [],
        "layers": layer_meta,
    }
    hbytes = json.dumps(header, sort_keys=True).encode()
    with atomic_write(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<HQI", VERSION, step, len(hbytes)))
        fh.write(hbytes)
        for b in blobs:
            fh.write(b)


def _dst_dict(cfg: DstConfig) -> dict:
    from dataclasses import asdict

    return asdict(cfg)


def _jsonable_rng(state) -> dict:
    # PCG64 state holds plain ints; json round-trips them exactly
    return json.loads(json.dumps(state))


def load_checkpoint(path) -> Checkpoint:
    try:
        with open(path, "rb") as fh:
            buf = fh.read()
    except OSError as e:
        raise CheckpointError(f"cannot read checkpoint {path}: {e}") from None
    if len(buf) < 18 or buf[:4] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    version, step, hlen = struct.unpack_from("<HQI", buf, 4)
    if version != VERSION:
        raise CheckpointError(f"{path}: checkpoint version {version}, this build reads {VERSION}")
    off = 18
    try:
        header = json.loads(buf[off : off + hlen].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"{path}: corrupt header: {e}") from None
    off += hlen

    def take_f32(shape):
        nonlocal off
        n = int(np.prod(shape))
        end = off + 4 * n
        if end > len(buf):
            raise CheckpointError(f"{path}: truncated at offset {off}, need {4 * n} bytes")
        arr = np.frombuffer(buf, dtype="<f4", count=n, offset=off).reshape(shape).copy()
        off = end
        return arr

    layers = []
    for meta in header["layers"]:
        shape = tuple(meta["shape"])
        w = take_f32(shape)
        b = take_f32((shape[0],))
        wm = take_f32(shape)
        bm = take_f32((shape[0],))
        m = None
        if meta["mask"]:
            n = int(np.prod(shape))
            (active,) = struct.unpack_from("<Q", buf, off)
            off += 8
            nbytes = (n + 7) // 8
            bits = np.frombuffer(buf, dtype=np.uint8, count=nbytes, offset=off)
            off += nbytes
            m = np.unpackbits(bits, bitorder="little", count=n).astype(bool).reshape(shape)
            if int(m.sum()) != active:
                raise CheckpointError(
                    f"{path}: mask for {meta['name']} has {int(m.sum())} active bits, "
                    f"header says {active}")
        layers.append((meta["name"], w, b, wm, bm, m))
    if off != len(buf):
        raise CheckpointError(f"{path}: {len(buf) - off} trailing bytes")

    return Checkpoint(
        version=version,
        step=step,
        model_spec=header["model_spec"],
        seed=header["seed"],
        rng_state=header["rng_state"],
        dst_digest=header["dst_digest"],
        dst_config=header["dst_config"],
        epoch_loss_sum=float.fromhex(header["epoch_loss_sum"]),
        epoch_loss_count=header["epoch_loss_count"],
        trajectory=[(int(s), float(d)) for s, d in header["trajectory"]],
        layers=layers,
    )
