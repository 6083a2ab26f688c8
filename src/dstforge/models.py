"""Trainable models (MLP, small convnet) and architecture tables.

Two views of a network live here. `ArchDescriptor` is a flat per-layer table.
`ModelSpec.descriptor()` writes the table of each trainable model, and both
the model's weights and its parameter/FLOP accounting follow from it; the
descriptor library carries the large reference architectures that are only
counted, never trained here. `Model` is a real trainable thing: a fixed stack
of `Layer`s whose forward fills the tape that `tensor.backward` reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import (CONV_CHUNK, Parameter, _conv2d, _linear, _pool_max, conv2d_forward,
                     linear_forward, maxpool2x2)


@dataclass(frozen=True)
class LayerSpec:
    """One row of an architecture table.

    For conv rows `c_in` is channels per group (1 for depthwise), so the dense
    weight count is always c_out * c_in * kh * kw. Linear rows use kh = kw =
    out_h = out_w = 1. bn rows carry no weights, only 2 * c_out affine params.
    """

    name: str
    kind: str  # "conv" | "linear" | "bn"
    c_in: int
    c_out: int
    kh: int
    kw: int
    out_h: int
    out_w: int
    has_bias: bool = True

    def weight_count(self) -> int:
        if self.kind == "bn":
            return 0
        return self.c_out * self.c_in * self.kh * self.kw

    def param_count(self) -> int:
        if self.kind == "bn":
            return 2 * self.c_out
        return self.weight_count() + (self.c_out if self.has_bias else 0)

    def macs(self) -> int:
        if self.kind == "bn":
            return 0
        return self.weight_count() * self.out_h * self.out_w

    def weight_shape(self) -> tuple[int, ...]:
        """Shape of a conv or linear row's weight array."""
        if self.kind == "conv":
            return (self.c_out, self.c_in, self.kh, self.kw)
        return (self.c_out, self.c_in)


@dataclass(frozen=True)
class ArchDescriptor:
    name: str
    classes: int
    layers: tuple[LayerSpec, ...]

    def sparsifiable_layers(self) -> tuple[LayerSpec, ...]:
        return tuple(s for s in self.layers if s.kind != "bn")


@dataclass(frozen=True)
class ModelSpec:
    """Recipe for a trainable model; `build_model` turns it into weights."""

    kind: str  # "mlp" | "small_convnet"
    dims: tuple[int, ...] = ()  # mlp layer widths, input first, classes last
    input_shape: tuple[int, int, int] = (3, 32, 32)  # small_convnet input
    classes: int = 10

    def __post_init__(self):
        if self.kind == "mlp":
            if len(self.dims) < 2 or min(self.dims) < 1:
                raise ValueError(f"mlp spec needs input and output widths, each >= 1: "
                                 f"{self.to_string()!r}")
            if self.classes != self.dims[-1]:
                raise ValueError(f"mlp spec {self.to_string()!r} has {self.dims[-1]} outputs "
                                 f"but classes={self.classes}")
        elif self.kind == "small_convnet":
            c, h, w = self.input_shape
            if min(c, h, w, self.classes) < 1 or h % 4 or w % 4:
                raise ValueError(f"small_convnet needs sizes >= 1 and spatial dims divisible "
                                 f"by 4, got {self.to_string()!r}")
        else:
            raise ValueError(f"unknown model kind {self.kind!r}")

    def to_string(self) -> str:
        if self.kind == "mlp":
            return "mlp:" + "-".join(str(d) for d in self.dims)
        c, h, w = self.input_shape
        return f"small_convnet:{c}x{h}x{w}-{self.classes}"

    def descriptor(self) -> ArchDescriptor:
        """The layer table of this model, in forward order: the one place its
        architecture is written.

        mlp: a fully connected relu net over `dims`, every width, input first,
        classes last. small_convnet:
        conv3x3(32)-pool-relu-conv3x3(64)-pool-relu-flatten-linear(128)-relu-linear(classes);
        each conv keeps its input size (see `Layer`) and each 2x2 pool halves
        it, so spatial dims shrink by 4x overall.
        """
        if self.kind == "mlp":
            layers = [LayerSpec(f"fc{i}", "linear", f_in, f_out, 1, 1, 1, 1)
                      for i, (f_in, f_out) in enumerate(zip(self.dims, self.dims[1:]), start=1)]
        else:
            c, h, w = self.input_shape
            layers = [LayerSpec("conv1", "conv", c, 32, 3, 3, h, w),
                      LayerSpec("conv2", "conv", 32, 64, 3, 3, h // 2, w // 2),
                      LayerSpec("fc1", "linear", 64 * (h // 4) * (w // 4), 128, 1, 1, 1, 1),
                      LayerSpec("fc2", "linear", 128, self.classes, 1, 1, 1, 1)]
        return ArchDescriptor(self.to_string(), self.classes, tuple(layers))


_SPEC_FORMS = {"mlp": "mlp:IN-...-CLASSES", "small_convnet": "small_convnet:CxHxW-CLASSES"}


def _spec_int(token: str) -> int:
    """A size of a model spec, written as `to_string` writes it."""
    n = int(token)
    if str(n) != token:
        raise ValueError(token)
    return n


def parse_model_spec(text: str) -> ModelSpec:
    """Parse a model string: "mlp:784-300-100-10" or "small_convnet:3x32x32-10".

    Sizes must be written as `to_string` writes them, so an accepted spec
    reads back as itself and every refusal quotes `text`."""
    text = text.strip()
    kind, colon, body = text.partition(":")
    if not colon or kind not in _SPEC_FORMS:
        raise ValueError(f"unknown model spec {text!r}, expected {' or '.join(_SPEC_FORMS.values())}")
    try:
        if kind == "mlp":
            dims = tuple(_spec_int(p) for p in body.split("-"))
            fields = dict(dims=dims, classes=dims[-1])
        else:
            shape_part, _, cls_part = body.rpartition("-")
            c, h, w = (_spec_int(p) for p in shape_part.split("x"))
            fields = dict(input_shape=(c, h, w), classes=_spec_int(cls_part))
    except ValueError:
        raise ValueError(f"bad {kind} spec {text!r}, expected {_SPEC_FORMS[kind]} "
                         f"with sizes as plain integers") from None
    return ModelSpec(kind=kind, **fields)


class Layer:
    """A weight-bearing layer of a trainable model: "conv" (the 'same' conv
    of `conv2d_forward`, then a 2x2 max pool and relu; max and relu commute,
    so pooling first gives the same values with relu on a quarter of the
    elements) or "linear" (followed by relu unless it is the last)."""

    def __init__(self, name: str, kind: str, weight: Parameter, bias: Parameter):
        self.name = name
        self.kind = kind
        self.weight = weight
        self.bias = bias


# Weight density below which `Model.forward(sparse=True)` runs a linear layer
# as CSR: where a CSR build plus product, paid on every call, matches one dense
# GEMM at fc1's shape of mlp:784-300-100-10 with metrics.EVAL_BATCH rows
# (README, "Sparse inference").
CSR_DENSITY_CROSSOVER = 0.01


class Model:
    def __init__(self, spec: ModelSpec, layers: list[Layer]):
        self.spec = spec
        self.layers = layers

    def parameters(self) -> list[Parameter]:
        out = []
        for layer in self.layers:
            out.append(layer.weight)
            out.append(layer.bias)
        return out

    def zero_grad(self):
        for p in self.parameters():
            p.grad = None

    def forward(self, x: np.ndarray, tape: list | None = None, sparse: bool = False) -> np.ndarray:
        """Logits for a batch: one pass over `self.layers` (see `Layer`).
        Images may arrive flat or as (n, c, h, w); the first linear layer
        flattens what reaches it.

        With a tape (training), every layer takes the whole batch through
        `linear_forward`, `conv2d_forward` and `maxpool2x2`, and the tape gets
        what `tensor.backward` reads: each layer's input, and after a conv
        layer's input its conv and pool outputs. Without one (inference), each
        layer calls those kernels' arithmetic (`tensor._linear`, `_conv2d`,
        `_pool_max`) on its arrays, nothing is kept, and the leading conv
        layers run CONV_CHUNK images at a time, each chunk's pooled output
        written into the batch's, so no full-batch conv output is ever live.
        Each conv GEMM runs per image either way (see `tensor._conv2d`), so
        both give the same bytes. The linear layers always take the whole
        batch at once: a GEMM's row bytes can depend on how many rows it is
        given.

        With sparse=True, which needs tape=None (see `predict`), each linear
        layer whose weight density is below CSR_DENSITY_CROSSOVER runs as a
        CSR product of its current (masked) weights, and every other layer
        runs as it does without it, to the same bytes.
        """
        if sparse and tape is not None:
            raise ValueError("forward(sparse=True) keeps no tape; call it with tape=None")

        n_conv = next((i for i, layer in enumerate(self.layers) if layer.kind != "conv"),
                      len(self.layers))

        def conv_stack(h: np.ndarray) -> np.ndarray:
            for layer in self.layers[:n_conv]:
                w, b = layer.weight, layer.bias
                if tape is None:
                    pooled = _pool_max(_conv2d(h, w.data, b.data))
                else:
                    conv = conv2d_forward(h, w, b)
                    pooled = maxpool2x2(conv)
                    tape.extend((h, conv, pooled))
                h = np.maximum(pooled, 0)
                del pooled  # without a tape, freed before the next layer runs
            return h

        if n_conv == 0 or tape is not None:
            x = conv_stack(x)
        else:
            first = conv_stack(x[:CONV_CHUNK])
            out = np.empty((x.shape[0], *first.shape[1:]), dtype=first.dtype)
            out[:CONV_CHUNK] = first
            for s in range(CONV_CHUNK, len(out), CONV_CHUNK):
                out[s : s + CONV_CHUNK] = conv_stack(x[s : s + CONV_CHUNK])
            x = out

        if x.ndim > 2:
            x = x.reshape(x.shape[0], -1)
        last = self.layers[-1]
        for layer in self.layers[n_conv:]:
            w, b = layer.weight, layer.bias
            if tape is not None:
                tape.append(x)
                x = linear_forward(x, w, b)
            elif sparse and np.count_nonzero(w.data) < CSR_DENSITY_CROSSOVER * w.data.size:
                from scipy.sparse import csr_matrix

                x = np.asarray((csr_matrix(w.data) @ x.T).T) + b.data
            else:
                x = _linear(x, w.data, b.data)
            if layer is not last:
                x = np.maximum(x, 0)
        return x

    def predict(self, x: np.ndarray, sparse: bool = False) -> np.ndarray:
        """Logits for a plain array: `forward` without a tape.

        The input is cast to float32 first, so float64 and float32 copies of a
        batch give the same logits, equal to the training forward's on the
        float32 batch. sparse=True runs the linear layers below the CSR
        crossover as CSR products (see `forward`).
        """
        return self.forward(np.asarray(x, dtype=np.float32), sparse=sparse)

    def descriptor(self) -> ArchDescriptor:
        return self.spec.descriptor()


def model_from_arrays(spec: ModelSpec,
                      arrays: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]
                      ) -> Model:
    """The model of `spec` over `arrays`, (weight, bias, weight momentum, bias
    momentum) by layer name, which it holds without copying; each weight must
    have its descriptor row's `weight_shape()`."""
    layers = []
    for row in spec.descriptor().layers:
        w, b, w_momentum, b_momentum = arrays[row.name]
        layers.append(Layer(row.name, row.kind,
                            Parameter(w, name=f"{row.name}.weight", momentum=w_momentum),
                            Parameter(b, name=f"{row.name}.bias", momentum=b_momentum)))
    return Model(spec, layers)


def build_model(spec: ModelSpec, rng: np.random.Generator) -> Model:
    """A fresh model of `spec`: each weight Kaiming-uniform, fan-in mode with
    relu gain, U(-b, b) with b = sqrt(6/fan_in), drawn from `rng` in layer
    order; each bias and momentum zero. The same generator state always
    yields the same weights."""
    arrays = {}
    for row in spec.descriptor().layers:
        shape = row.weight_shape()
        bound = np.sqrt(6.0 / np.prod(shape[1:]))
        w = rng.uniform(-bound, bound, shape).astype(np.float32)
        b = np.zeros(shape[0], dtype=np.float32)
        arrays[row.name] = (w, b, np.zeros_like(w), np.zeros_like(b))
    return model_from_arrays(spec, arrays)


# ---------------------------------------------------------------------------
# descriptor library


def _conv_bn(layers: list[LayerSpec], conv: str, bn: str, c_in: int, c_out: int, k: int,
             hw: int, has_bias: bool = False):
    """A k x k conv row at output size hw x hw and the bn row that follows it."""
    layers.append(LayerSpec(conv, "conv", c_in, c_out, k, k, hw, hw, has_bias=has_bias))
    layers.append(LayerSpec(bn, "bn", c_out, c_out, 0, 0, hw, hw))


def _vgg16_cifar() -> ArchDescriptor:
    cfg = [64, 64, "M", 128, 128, "M", 256, 256, 256, "M", 512, 512, 512, "M", 512, 512, 512, "M"]
    layers = []
    c_in, hw = 3, 32
    idx = 0
    for item in cfg:
        if item == "M":
            hw //= 2
            continue
        idx += 1
        _conv_bn(layers, f"conv{idx}", f"bn{idx}", c_in, item, 3, hw, has_bias=True)
        c_in = item
    layers.append(LayerSpec("fc1", "linear", 512, 512, 1, 1, 1, 1))
    layers.append(LayerSpec("fc2", "linear", 512, 10, 1, 1, 1, 1))
    return ArchDescriptor("vgg16-cifar", 10, tuple(layers))


def _basic_block(layers: list[LayerSpec], tag: str, c_in: int, c_out: int, hw: int,
                 downsample: bool):
    _conv_bn(layers, f"{tag}.conv1", f"{tag}.bn1", c_in, c_out, 3, hw)
    _conv_bn(layers, f"{tag}.conv2", f"{tag}.bn2", c_out, c_out, 3, hw)
    if downsample:
        _conv_bn(layers, f"{tag}.down", f"{tag}.down_bn", c_in, c_out, 1, hw)


def _resnet34_cifar() -> ArchDescriptor:
    layers: list[LayerSpec] = []
    _conv_bn(layers, "stem", "stem_bn", 3, 64, 3, 32)
    c_in, hw = 64, 32
    for stage, (blocks, c_out) in enumerate([(3, 64), (4, 128), (6, 256), (3, 512)], start=1):
        for b in range(blocks):
            if b == 0 and stage > 1:
                hw //= 2
            _basic_block(layers, f"s{stage}b{b + 1}", c_in, c_out, hw,
                         downsample=(b == 0 and c_in != c_out))
            c_in = c_out
    layers.append(LayerSpec("fc", "linear", 512, 10, 1, 1, 1, 1))
    return ArchDescriptor("resnet34-cifar", 10, tuple(layers))


def _bottleneck(layers: list[LayerSpec], tag: str, c_in: int, mid: int, c_out: int,
                hw_in: int, hw_out: int, downsample: bool):
    _conv_bn(layers, f"{tag}.conv1", f"{tag}.bn1", c_in, mid, 1, hw_in)
    _conv_bn(layers, f"{tag}.conv2", f"{tag}.bn2", mid, mid, 3, hw_out)
    _conv_bn(layers, f"{tag}.conv3", f"{tag}.bn3", mid, c_out, 1, hw_out)
    if downsample:
        _conv_bn(layers, f"{tag}.down", f"{tag}.down_bn", c_in, c_out, 1, hw_out)


def _resnet50_imagenet() -> ArchDescriptor:
    layers: list[LayerSpec] = []
    _conv_bn(layers, "stem", "stem_bn", 3, 64, 7, 112)
    c_in, hw = 64, 56  # after the stem maxpool
    for stage, (blocks, mid, c_out) in enumerate(
        [(3, 64, 256), (4, 128, 512), (6, 256, 1024), (3, 512, 2048)], start=1
    ):
        for b in range(blocks):
            stride2 = b == 0 and stage > 1
            hw_out = hw // 2 if stride2 else hw
            _bottleneck(layers, f"s{stage}b{b + 1}", c_in, mid, c_out, hw, hw_out,
                        downsample=(b == 0))
            hw = hw_out
            c_in = c_out
    layers.append(LayerSpec("fc", "linear", 2048, 1000, 1, 1, 1, 1))
    return ArchDescriptor("resnet50-imagenet", 1000, tuple(layers))


def _efficientnetb0_tiny() -> ArchDescriptor:
    """EfficientNet-B0 trunk counted at 64x64 input with a 200-way classifier.

    Depthwise convs are encoded with c_in = 1 (channels per group), so the
    generic weight/MAC formulas stay valid. SE reductions squeeze to a quarter
    of the block's input channels.
    """
    layers: list[LayerSpec] = []
    _conv_bn(layers, "stem", "stem_bn", 3, 32, 3, 32)
    stages = [  # expansion, c_out, repeats, stride, kernel
        (1, 16, 1, 1, 3),
        (6, 24, 2, 2, 3),
        (6, 40, 2, 2, 5),
        (6, 80, 3, 2, 3),
        (6, 112, 3, 1, 5),
        (6, 192, 4, 2, 5),
        (6, 320, 1, 1, 3),
    ]
    c_in, hw = 32, 32
    for snum, (e, c_out, reps, stride, k) in enumerate(stages, start=1):
        for b in range(reps):
            s = stride if b == 0 else 1
            tag = f"s{snum}b{b + 1}"
            exp = c_in * e
            if e != 1:
                _conv_bn(layers, f"{tag}.expand", f"{tag}.expand_bn", c_in, exp, 1, hw)
            hw_out = hw // s
            _conv_bn(layers, f"{tag}.dw", f"{tag}.dw_bn", 1, exp, k, hw_out)
            se_mid = max(1, c_in // 4)
            layers.append(LayerSpec(f"{tag}.se1", "conv", exp, se_mid, 1, 1, 1, 1))
            layers.append(LayerSpec(f"{tag}.se2", "conv", se_mid, exp, 1, 1, 1, 1))
            _conv_bn(layers, f"{tag}.project", f"{tag}.project_bn", exp, c_out, 1, hw_out)
            c_in, hw = c_out, hw_out
    _conv_bn(layers, "head", "head_bn", 320, 1280, 1, hw)
    layers.append(LayerSpec("fc", "linear", 1280, 200, 1, 1, 1, 1))
    return ArchDescriptor("efficientnetb0-tiny", 200, tuple(layers))


def descriptor_library() -> dict[str, ArchDescriptor]:
    descs = [_vgg16_cifar(), _resnet34_cifar(), _efficientnetb0_tiny(), _resnet50_imagenet()]
    return {d.name: d for d in descs}
