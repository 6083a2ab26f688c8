"""Binary checkpoints: weights, momentum, masks, RNG state, run digest.

Layout: magic "DSTF", u16 version, u64 step, u32 header length, JSON header,
then per layer (in header order) the weight, bias, and momentum arrays as
little-endian float32, and for masked layers (none in a dense run) a u64 active
count followed by a little-endian bitset. Everything needed to continue a run
bit-exactly lives here; nothing in the file depends on wall-clock time.

Both directions stream, array by array: `save_checkpoint` hands the file each
array's own buffer, and `load_checkpoint` reads the header, then each array
straight into a new one of its own, so neither holds a second copy of the
file's arrays.

A load for scoring, `load_checkpoint(path, momenta=False)`, seeks past every
momentum array instead of reading it, so it holds the weights, biases and
masks alone. It checks what a full load checks: every array must lie inside
the file's length, every mask's active count must match its bits, and no
bytes may trail the last array. The model it builds has no momentum buffers,
so it scores but cannot take an SGD step or be saved. Resume and `inspect`
read everything.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict, dataclass

import numpy as np

from .data import atomic_write
from .models import Model, model_from_arrays, parse_model_spec
from .schedulers import BudgetTrajectory, DstConfig
from .sparsity import TopologyMask

MAGIC = b"DSTF"
VERSION = 2


class CheckpointError(Exception):
    pass


@dataclass
class Checkpoint:
    step: int
    model_spec: str
    seed: int
    rng_state: dict
    run_digest: str  # RunConfig.digest() of the run that wrote it
    dst_config: dict
    epoch_loss_sum: float
    epoch_loss_count: int
    trajectory: list
    layers: list  # (name, weight, bias, w_momentum, b_momentum); momenta None if skipped
    masks: dict  # name -> bool array, masked layers only

    def build_model(self) -> Model:
        """The model with these exact weights and momenta, built on this
        checkpoint's own arrays, which it takes over without a copy. Read
        without its momenta, the checkpoint builds a model that only scores."""
        spec = parse_model_spec(self.model_spec)
        shapes = {row.name: row.weight_shape() for row in spec.descriptor().layers}
        if set(shapes) != {name for name, *_ in self.layers}:
            raise CheckpointError("checkpoint layers do not match the model spec")
        for name, w, *_ in self.layers:
            if w.shape != shapes[name]:
                raise CheckpointError(
                    f"layer {name}: shape {w.shape} in file, model expects {shapes[name]}")
        return model_from_arrays(spec, {name: arrays for name, *arrays in self.layers})

    def mask(self) -> TopologyMask:
        return TopologyMask(self.masks)


def save_checkpoint(path, model: Model, mask: TopologyMask, step: int,
                    rng: np.random.Generator, dst_cfg: DstConfig, seed: int, run_digest: str,
                    trajectory: BudgetTrajectory, epoch_loss_sum: float, epoch_loss_count: int):
    for p in model.parameters():
        if p.momentum is None:
            raise ValueError(f"save_checkpoint: parameter {p.name!r} has no momentum buffer; "
                             f"it was loaded for scoring")
    layer_meta = [{"name": layer.name, "kind": layer.kind,
                   "shape": list(layer.weight.data.shape), "mask": layer.name in mask}
                  for layer in model.layers]
    header = {
        "model_spec": model.spec.to_string(),
        "seed": seed,
        "rng_state": rng.bit_generator.state,  # plain ints, which json round-trips exactly
        "run_digest": run_digest,
        "dst_config": asdict(dst_cfg),
        "epoch_loss_sum": float(epoch_loss_sum).hex(),
        "epoch_loss_count": epoch_loss_count,
        "trajectory": trajectory.samples,
        "layers": layer_meta,
    }
    hbytes = json.dumps(header, sort_keys=True).encode()
    with atomic_write(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<HQI", VERSION, step, len(hbytes)))
        fh.write(hbytes)
        for layer in model.layers:
            # a copy only of an array that is not contiguous <f4 already
            for a in (layer.weight.data, layer.bias.data, layer.weight.momentum,
                      layer.bias.momentum):
                fh.write(np.ascontiguousarray(a, dtype="<f4"))
            if layer.name in mask:
                m = mask[layer.name].reshape(-1)
                fh.write(struct.pack("<Q", np.count_nonzero(m)))
                fh.write(np.packbits(m, bitorder="little"))


# the header fields load_checkpoint reads, with the JSON type each must have
_HEADER_TYPES = {"model_spec": str, "seed": int, "rng_state": dict, "run_digest": str,
                 "dst_config": dict, "epoch_loss_sum": str, "epoch_loss_count": int,
                 "trajectory": list, "layers": list}


def _layer_meta(path, i: int, meta) -> tuple[str, tuple, bool]:
    """(name, shape, masked) of header layer `i`, or CheckpointError."""
    shape = meta.get("shape") if isinstance(meta, dict) else None
    if not (isinstance(shape, list) and shape and all(type(d) is int and d > 0 for d in shape)
            and isinstance(meta.get("name"), str) and isinstance(meta.get("mask"), bool)):
        raise CheckpointError(f"{path}: header layer {i} needs a name, a shape of positive "
                              f"ints and a mask flag")
    return meta["name"], tuple(shape), meta["mask"]


def load_checkpoint(path, *, momenta: bool = True) -> Checkpoint:
    """Read a checkpoint; a file that is not one whole, well-formed checkpoint
    of this version raises CheckpointError, never a parsing error. With
    momenta=False every momentum array is skipped, not read, and its place in
    `layers` is None."""
    try:
        fh = open(path, "rb")
    except OSError as e:
        raise CheckpointError(f"cannot read checkpoint {path}: {e}") from None
    with fh:
        try:
            return _read_checkpoint(path, fh, momenta)
        except OSError as e:
            raise CheckpointError(f"cannot read checkpoint {path}: {e}") from None


def _read_checkpoint(path, fh, momenta: bool) -> Checkpoint:
    """`load_checkpoint` on its open file `fh`."""
    size = os.fstat(fh.fileno()).st_size
    head = fh.read(18)
    if len(head) < 18 or head[:4] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    version, step, hlen = struct.unpack_from("<HQI", head, 4)
    if version != VERSION:
        raise CheckpointError(f"{path}: checkpoint version {version}, this build reads {VERSION}")
    off = 18

    def truncated(nbytes: int) -> CheckpointError:
        return CheckpointError(f"{path}: truncated at offset {off}, need {nbytes} bytes")

    def take(nbytes: int, alloc=bytearray):
        """The next `nbytes` of the file, read into `alloc(nbytes)`, which is
        only made once the file is known to hold them."""
        nonlocal off
        if off + nbytes <= size:
            out = alloc(nbytes)
            if fh.readinto(memoryview(out).cast("B")) == nbytes:
                off += nbytes
                return out
        raise truncated(nbytes)

    def take_f32(shape):
        return take(4 * math.prod(shape), lambda _: np.empty(shape, dtype="<f4"))

    def skip_f32(shape) -> None:
        """Seek past the next float32 array, which the file must hold whole."""
        nonlocal off
        nbytes = 4 * math.prod(shape)
        if off + nbytes > size:
            raise truncated(nbytes)
        fh.seek(nbytes, os.SEEK_CUR)
        off += nbytes

    momentum = take_f32 if momenta else skip_f32

    try:
        header = json.loads(take(hlen).decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"{path}: corrupt header: {e}") from None
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is a JSON {type(header).__name__}, not an object")
    for key, kind in _HEADER_TYPES.items():
        if not isinstance(header.get(key), kind):
            raise CheckpointError(f"{path}: header field {key!r} is missing or not a {kind.__name__}")
    if not isinstance(header["dst_config"].get("method"), str):
        raise CheckpointError(f"{path}: header dst_config names no method")
    try:
        parse_model_spec(header["model_spec"])
        epoch_loss_sum = float.fromhex(header["epoch_loss_sum"])
        trajectory = [(int(s), float(d)) for s, d in header["trajectory"]]
    except (TypeError, ValueError, OverflowError) as e:
        raise CheckpointError(f"{path}: corrupt header: {e}") from None

    layers, masks = [], {}
    for i, meta in enumerate(header["layers"]):
        name, shape, masked = _layer_meta(path, i, meta)
        w = take_f32(shape)
        b = take_f32((shape[0],))
        wm = momentum(shape)
        bm = momentum((shape[0],))
        layers.append((name, w, b, wm, bm))
        if masked:
            n = math.prod(shape)
            (active,) = struct.unpack("<Q", take(8))
            bits = np.frombuffer(take((n + 7) // 8), dtype=np.uint8)
            # unpackbits writes 0 or 1 per byte, a bool array's own bytes
            m = np.unpackbits(bits, bitorder="little", count=n).view(bool).reshape(shape)
            if np.count_nonzero(m) != active:
                raise CheckpointError(
                    f"{path}: mask for {name} has {np.count_nonzero(m)} active bits, "
                    f"header says {active}")
            masks[name] = m
    if off != size:
        raise CheckpointError(f"{path}: {size - off} trailing bytes")

    return Checkpoint(
        step=step,
        model_spec=header["model_spec"],
        seed=header["seed"],
        rng_state=header["rng_state"],
        run_digest=header["run_digest"],
        dst_config=header["dst_config"],
        epoch_loss_sum=epoch_loss_sum,
        epoch_loss_count=header["epoch_loss_count"],
        trajectory=trajectory,
        layers=layers,
        masks=masks,
    )
