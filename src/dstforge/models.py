"""Trainable models (MLP, small convnet) and accounting-only architecture tables.

Two views of a network live here. `Model` is a real trainable thing built on
the autograd core. `ArchDescriptor` is a flat per-layer table used only for
parameter/FLOP accounting; the descriptor library carries the large reference
architectures that are never trained here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import (
    Parameter,
    Tensor,
    flatten,
    grad_enabled,
    layer_kernels,
    no_grad,
    relu,
)


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
    sparsifiable: bool = True

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


@dataclass(frozen=True)
class ArchDescriptor:
    name: str
    input_shape: tuple[int, int, int]  # (c, h, w)
    classes: int
    layers: tuple[LayerSpec, ...]

    def sparsifiable_layers(self) -> tuple[LayerSpec, ...]:
        return tuple(s for s in self.layers if s.sparsifiable and s.kind != "bn")


@dataclass(frozen=True)
class ModelSpec:
    """Recipe for a trainable model; `build_model` turns it into weights."""

    kind: str  # "mlp" | "small_convnet"
    dims: tuple[int, ...] = ()  # mlp layer widths, input first, classes last
    input_shape: tuple[int, int, int] = (3, 32, 32)  # small_convnet input
    classes: int = 10

    def to_string(self) -> str:
        if self.kind == "mlp":
            return "mlp:" + "-".join(str(d) for d in self.dims)
        c, h, w = self.input_shape
        return f"small_convnet:{c}x{h}x{w}-{self.classes}"


def parse_model_spec(text: str) -> ModelSpec:
    """Parse a model string: "mlp:784-300-100-10" or "small_convnet:3x32x32-10"."""
    text = text.strip()
    if text.startswith("mlp:"):
        dims = tuple(int(p) for p in text[4:].split("-"))
        if len(dims) < 2:
            raise ValueError(f"mlp spec needs at least input and output widths: {text!r}")
        return ModelSpec(kind="mlp", dims=dims, classes=dims[-1])
    if text.startswith("small_convnet:"):
        body = text[len("small_convnet:"):]
        shape_part, _, cls_part = body.rpartition("-")
        try:
            c, h, w = (int(p) for p in shape_part.split("x"))
            classes = int(cls_part)
        except ValueError:
            raise ValueError(f"bad small_convnet spec {text!r}, expected CxHxW-classes") from None
        return ModelSpec(kind="small_convnet", input_shape=(c, h, w), classes=classes)
    raise ValueError(f"unknown model spec {text!r}")


class Layer:
    """A weight-bearing layer of a trainable model."""

    def __init__(self, name: str, kind: str, weight: Parameter, bias: Parameter,
                 stride: int = 1, padding: int = 0, sparsifiable: bool = True):
        self.name = name
        self.kind = kind
        self.weight = weight
        self.bias = bias
        self.stride = stride
        self.padding = padding
        self.sparsifiable = sparsifiable


class Model:
    def __init__(self, spec: ModelSpec, layers: list[Layer], input_shape: tuple[int, int, int]):
        self.spec = spec
        self.layers = layers
        self.input_shape = input_shape

    def parameters(self) -> list[Parameter]:
        out = []
        for layer in self.layers:
            out.append(layer.weight)
            out.append(layer.bias)
        return out

    def layer_by_name(self, name: str) -> Layer:
        for layer in self.layers:
            if layer.name == name:
                return layer
        raise KeyError(f"no layer named {name!r}")

    def zero_grad(self):
        for p in self.parameters():
            p.zero_grad()

    def forward(self, x: Tensor, sparse: bool = False) -> Tensor:
        """Logits for a batch. Images may arrive flat or as (n, c, h, w).

        The layer kernels come from `layer_kernels()`: graph ops, or under
        `no_grad` their forward-only forms. With sparse=True the linear layers
        run as CSR products of the current (masked) weights and convolutions
        stay dense; that product records no graph, so it is only allowed
        under `no_grad` (see `predict`).
        """
        def csr_linear(h: Tensor, w: Tensor, b: Tensor) -> Tensor:
            from scipy.sparse import csr_matrix

            return Tensor(np.asarray((csr_matrix(w.data) @ h.data.T).T) + b.data)

        linear, conv2d, maxpool = layer_kernels()
        if sparse:
            if grad_enabled():
                raise ValueError("forward(sparse=True) builds no graph; call it under no_grad")
            linear = csr_linear

        if self.spec.kind == "mlp":
            if x.data.ndim > 2:
                x = flatten(x)
            for layer in self.layers[:-1]:
                x = relu(linear(x, layer.weight, layer.bias))
            last = self.layers[-1]
            return linear(x, last.weight, last.bias)

        conv1, conv2, fc1, fc2 = self.layers
        if x.data.ndim != 4:
            raise ValueError(f"small_convnet expects (n, c, h, w) input, got {x.data.shape}")
        h = maxpool(relu(conv2d(x, conv1.weight, conv1.bias, conv1.stride, conv1.padding)))
        h = maxpool(relu(conv2d(h, conv2.weight, conv2.bias, conv2.stride, conv2.padding)))
        h = relu(linear(flatten(h), fc1.weight, fc1.bias))
        return linear(h, fc2.weight, fc2.bias)

    def predict(self, x: np.ndarray, sparse: bool = False) -> np.ndarray:
        """Logits for a plain array: `forward` under `no_grad`, as an array.

        The input is cast to float32 first, so float64 and float32 copies of a
        batch give the same logits, equal to the training forward's on the
        float32 batch. sparse=True selects the CSR linear layers of `forward`.
        """
        with no_grad():
            return self.forward(Tensor(np.asarray(x, dtype=np.float32)), sparse=sparse).data

    def descriptor(self) -> ArchDescriptor:
        specs = []
        c, hh, ww = self.input_shape
        if self.spec.kind == "mlp":
            for layer in self.layers:
                f_out, f_in = layer.weight.data.shape
                specs.append(LayerSpec(layer.name, "linear", f_in, f_out, 1, 1, 1, 1,
                                       sparsifiable=layer.sparsifiable))
        else:
            conv1, conv2, fc1, fc2 = self.layers
            specs.append(LayerSpec(conv1.name, "conv", c, 32, 3, 3, hh, ww,
                                   sparsifiable=conv1.sparsifiable))
            specs.append(LayerSpec(conv2.name, "conv", 32, 64, 3, 3, hh // 2, ww // 2,
                                   sparsifiable=conv2.sparsifiable))
            fc_in = 64 * (hh // 4) * (ww // 4)
            specs.append(LayerSpec(fc1.name, "linear", fc_in, 128, 1, 1, 1, 1,
                                   sparsifiable=fc1.sparsifiable))
            specs.append(LayerSpec(fc2.name, "linear", 128, self.spec.classes, 1, 1, 1, 1,
                                   sparsifiable=fc2.sparsifiable))
        return ArchDescriptor(self.spec.to_string(), self.input_shape, self.spec.classes, tuple(specs))


def _he_init(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    # Kaiming-uniform, fan-in mode, relu gain: U(-b, b) with b = sqrt(6/fan_in)
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, shape).astype(np.float32)


def build_mlp(dims: tuple[int, ...], rng: np.random.Generator) -> Model:
    """Fully connected relu net; dims lists every width, input first, classes last.

    The same generator state always yields the same weights.
    """
    if len(dims) < 2:
        raise ValueError("mlp needs at least input and output widths")
    layers = []
    for i in range(len(dims) - 1):
        f_in, f_out = dims[i], dims[i + 1]
        w = Parameter(_he_init(rng, (f_out, f_in), f_in), name=f"fc{i + 1}.weight")
        b = Parameter(np.zeros(f_out, dtype=np.float32), name=f"fc{i + 1}.bias")
        layers.append(Layer(f"fc{i + 1}", "linear", w, b))
    spec = ModelSpec(kind="mlp", dims=tuple(dims), classes=dims[-1])
    side = int(round(np.sqrt(dims[0])))
    input_shape = (1, side, side) if side * side == dims[0] else (1, 1, dims[0])
    return Model(spec, layers, input_shape)


def build_small_convnet(input_shape: tuple[int, int, int], classes: int,
                        rng: np.random.Generator) -> Model:
    """conv3x3(32)-relu-pool-conv3x3(64)-relu-pool-flatten-linear(128)-relu-linear(classes).

    Convolutions are stride 1 with padding 1, pools are 2x2/2, so spatial dims
    shrink by 4x overall and must be divisible by 4.
    """
    c, h, w = input_shape
    if h % 4 or w % 4:
        raise ValueError(f"small_convnet needs spatial dims divisible by 4, got {h}x{w}")
    fc_in = 64 * (h // 4) * (w // 4)

    def conv_layer(name, c_in, c_out):
        wgt = Parameter(_he_init(rng, (c_out, c_in, 3, 3), c_in * 9), name=f"{name}.weight")
        bias = Parameter(np.zeros(c_out, dtype=np.float32), name=f"{name}.bias")
        return Layer(name, "conv", wgt, bias, stride=1, padding=1)

    def fc_layer(name, f_in, f_out):
        wgt = Parameter(_he_init(rng, (f_out, f_in), f_in), name=f"{name}.weight")
        bias = Parameter(np.zeros(f_out, dtype=np.float32), name=f"{name}.bias")
        return Layer(name, "linear", wgt, bias)

    layers = [
        conv_layer("conv1", c, 32),
        conv_layer("conv2", 32, 64),
        fc_layer("fc1", fc_in, 128),
        fc_layer("fc2", 128, classes),
    ]
    spec = ModelSpec(kind="small_convnet", input_shape=tuple(input_shape), classes=classes)
    return Model(spec, layers, tuple(input_shape))


def build_model(spec: ModelSpec, rng: np.random.Generator) -> Model:
    if spec.kind == "mlp":
        return build_mlp(spec.dims, rng)
    if spec.kind == "small_convnet":
        return build_small_convnet(spec.input_shape, spec.classes, rng)
    raise ValueError(f"unknown model kind {spec.kind!r}")


# ---------------------------------------------------------------------------
# descriptor library


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
        layers.append(LayerSpec(f"conv{idx}", "conv", c_in, item, 3, 3, hw, hw))
        layers.append(LayerSpec(f"bn{idx}", "bn", item, item, 0, 0, hw, hw, sparsifiable=False))
        c_in = item
    layers.append(LayerSpec("fc1", "linear", 512, 512, 1, 1, 1, 1))
    layers.append(LayerSpec("fc2", "linear", 512, 10, 1, 1, 1, 1))
    return ArchDescriptor("vgg16-cifar", (3, 32, 32), 10, tuple(layers))


def _basic_block(layers: list[LayerSpec], tag: str, c_in: int, c_out: int, hw: int,
                 downsample: bool):
    layers.append(LayerSpec(f"{tag}.conv1", "conv", c_in, c_out, 3, 3, hw, hw, has_bias=False))
    layers.append(LayerSpec(f"{tag}.bn1", "bn", c_out, c_out, 0, 0, hw, hw, sparsifiable=False))
    layers.append(LayerSpec(f"{tag}.conv2", "conv", c_out, c_out, 3, 3, hw, hw, has_bias=False))
    layers.append(LayerSpec(f"{tag}.bn2", "bn", c_out, c_out, 0, 0, hw, hw, sparsifiable=False))
    if downsample:
        layers.append(LayerSpec(f"{tag}.down", "conv", c_in, c_out, 1, 1, hw, hw, has_bias=False))
        layers.append(LayerSpec(f"{tag}.down_bn", "bn", c_out, c_out, 0, 0, hw, hw, sparsifiable=False))


def _resnet34_cifar() -> ArchDescriptor:
    layers: list[LayerSpec] = [
        LayerSpec("stem", "conv", 3, 64, 3, 3, 32, 32, has_bias=False),
        LayerSpec("stem_bn", "bn", 64, 64, 0, 0, 32, 32, sparsifiable=False),
    ]
    c_in, hw = 64, 32
    for stage, (blocks, c_out) in enumerate([(3, 64), (4, 128), (6, 256), (3, 512)], start=1):
        for b in range(blocks):
            if b == 0 and stage > 1:
                hw //= 2
            _basic_block(layers, f"s{stage}b{b + 1}", c_in, c_out, hw,
                         downsample=(b == 0 and c_in != c_out))
            c_in = c_out
    layers.append(LayerSpec("fc", "linear", 512, 10, 1, 1, 1, 1))
    return ArchDescriptor("resnet34-cifar", (3, 32, 32), 10, tuple(layers))


def _bottleneck(layers: list[LayerSpec], tag: str, c_in: int, mid: int, c_out: int,
                hw_in: int, hw_out: int, downsample: bool):
    layers.append(LayerSpec(f"{tag}.conv1", "conv", c_in, mid, 1, 1, hw_in, hw_in, has_bias=False))
    layers.append(LayerSpec(f"{tag}.bn1", "bn", mid, mid, 0, 0, hw_in, hw_in, sparsifiable=False))
    layers.append(LayerSpec(f"{tag}.conv2", "conv", mid, mid, 3, 3, hw_out, hw_out, has_bias=False))
    layers.append(LayerSpec(f"{tag}.bn2", "bn", mid, mid, 0, 0, hw_out, hw_out, sparsifiable=False))
    layers.append(LayerSpec(f"{tag}.conv3", "conv", mid, c_out, 1, 1, hw_out, hw_out, has_bias=False))
    layers.append(LayerSpec(f"{tag}.bn3", "bn", c_out, c_out, 0, 0, hw_out, hw_out, sparsifiable=False))
    if downsample:
        layers.append(LayerSpec(f"{tag}.down", "conv", c_in, c_out, 1, 1, hw_out, hw_out, has_bias=False))
        layers.append(LayerSpec(f"{tag}.down_bn", "bn", c_out, c_out, 0, 0, hw_out, hw_out, sparsifiable=False))


def _resnet50_imagenet() -> ArchDescriptor:
    layers: list[LayerSpec] = [
        LayerSpec("stem", "conv", 3, 64, 7, 7, 112, 112, has_bias=False),
        LayerSpec("stem_bn", "bn", 64, 64, 0, 0, 112, 112, sparsifiable=False),
    ]
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
    return ArchDescriptor("resnet50-imagenet", (3, 224, 224), 1000, tuple(layers))


def _efficientnetb0_tiny() -> ArchDescriptor:
    """EfficientNet-B0 trunk counted at 64x64 input with a 200-way classifier.

    Depthwise convs are encoded with c_in = 1 (channels per group), so the
    generic weight/MAC formulas stay valid. SE reductions squeeze to a quarter
    of the block's input channels.
    """
    layers: list[LayerSpec] = [
        LayerSpec("stem", "conv", 3, 32, 3, 3, 32, 32, has_bias=False),
        LayerSpec("stem_bn", "bn", 32, 32, 0, 0, 32, 32, sparsifiable=False),
    ]
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
                layers.append(LayerSpec(f"{tag}.expand", "conv", c_in, exp, 1, 1, hw, hw, has_bias=False))
                layers.append(LayerSpec(f"{tag}.expand_bn", "bn", exp, exp, 0, 0, hw, hw, sparsifiable=False))
            hw_out = hw // s
            layers.append(LayerSpec(f"{tag}.dw", "conv", 1, exp, k, k, hw_out, hw_out, has_bias=False))
            layers.append(LayerSpec(f"{tag}.dw_bn", "bn", exp, exp, 0, 0, hw_out, hw_out, sparsifiable=False))
            se_mid = max(1, c_in // 4)
            layers.append(LayerSpec(f"{tag}.se1", "conv", exp, se_mid, 1, 1, 1, 1))
            layers.append(LayerSpec(f"{tag}.se2", "conv", se_mid, exp, 1, 1, 1, 1))
            layers.append(LayerSpec(f"{tag}.project", "conv", exp, c_out, 1, 1, hw_out, hw_out, has_bias=False))
            layers.append(LayerSpec(f"{tag}.project_bn", "bn", c_out, c_out, 0, 0, hw_out, hw_out, sparsifiable=False))
            c_in, hw = c_out, hw_out
    layers.append(LayerSpec("head", "conv", 320, 1280, 1, 1, hw, hw, has_bias=False))
    layers.append(LayerSpec("head_bn", "bn", 1280, 1280, 0, 0, hw, hw, sparsifiable=False))
    layers.append(LayerSpec("fc", "linear", 1280, 200, 1, 1, 1, 1))
    return ArchDescriptor("efficientnetb0-tiny", (3, 64, 64), 200, tuple(layers))


def descriptor_library() -> dict[str, ArchDescriptor]:
    descs = [_vgg16_cifar(), _resnet34_cifar(), _efficientnetb0_tiny(), _resnet50_imagenet()]
    return {d.name: d for d in descs}
