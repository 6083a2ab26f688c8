"""Model builders, spec strings, descriptors, and the architecture library."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dstforge import models
from dstforge.metrics import inference_flops
from dstforge.models import ModelSpec, build_model, descriptor_library, parse_model_spec
from dstforge.tensor import CONV_CHUNK, conv2d_forward, linear_forward, maxpool2x2


def _param_count(model) -> int:
    return sum(p.data.size for p in model.parameters())


def test_mlp_parameter_count_anchor():
    # 784*300 + 300*100 + 100*10 = 266,200 weights plus 410 biases.
    model = build_model(parse_model_spec("mlp:784-300-100-10"), np.random.default_rng(0))
    weights = sum(l.weight.data.size for l in model.layers)
    biases = sum(l.bias.data.size for l in model.layers)
    assert weights == 266_200
    assert biases == 410
    assert _param_count(model) == 266_610


def test_small_convnet_parameter_count_anchor():
    model = build_model(parse_model_spec("small_convnet:3x32x32-10"), np.random.default_rng(0))
    # conv1 3->32 3x3, conv2 32->64 3x3, fc1 64*8*8->128, fc2 128->10
    assert _param_count(model) == 545_098


def test_small_convnet_layer_shapes():
    model = build_model(parse_model_spec("small_convnet:3x32x32-10"), np.random.default_rng(0))
    shapes = {l.name: l.weight.data.shape for l in model.layers}
    assert shapes == {
        "conv1": (32, 3, 3, 3),
        "conv2": (64, 32, 3, 3),
        "fc1": (128, 64 * 8 * 8),
        "fc2": (10, 128),
    }
    assert {s.name: s.weight_shape() for s in model.descriptor().layers} == shapes


# sizes as `to_string` writes them, often multiples of 4 so convnet specs pass
_SPEC_SIZES = st.integers(0, 10).map(lambda n: str(4 * n)) | st.integers(-3, 40).map(str)
# ... and text that `int()` takes in another form, or refuses
_SPEC_TOKENS = _SPEC_SIZES | st.sampled_from(["", "x", "a", "1.5", "07", "+3", "1_0", " 4"])


@st.composite
def _spec_texts(draw):
    token = _SPEC_SIZES if draw(st.booleans()) else _SPEC_TOKENS
    if draw(st.booleans()):
        return "mlp:" + "-".join(draw(st.lists(token, min_size=1, max_size=4)))
    shape = "x".join(draw(st.lists(token, min_size=2, max_size=4)))
    return f"small_convnet:{shape}-{draw(token)}"


@settings(deadline=None, max_examples=100)
@given(s=_spec_texts())
def test_a_model_spec_reads_back_as_itself_or_is_refused_by_name(s):
    try:
        spec = parse_model_spec(s)
    except ValueError as e:
        assert s in str(e)
    else:
        assert parse_model_spec(spec.to_string()) == spec
        assert spec.to_string() == s


def test_small_convnet_needs_divisible_dims():
    # the spec checks itself, however it is made
    with pytest.raises(ValueError, match="divisible by 4"):
        ModelSpec(kind="small_convnet", input_shape=(3, 30, 32))
    with pytest.raises(ValueError, match="divisible by 4"):
        parse_model_spec("small_convnet:3x30x32-10")
    with pytest.raises(ValueError, match="input and output widths"):
        ModelSpec(kind="mlp", dims=(784,), classes=784)


def test_mlp_spec_classes_are_its_last_width():
    with pytest.raises(ValueError, match=r"'mlp:4-3' has 3 outputs but classes=10"):
        ModelSpec(kind="mlp", dims=(4, 3))
    spec = ModelSpec(kind="mlp", dims=(4, 3), classes=3)
    assert spec.descriptor().classes == 3 == spec.descriptor().layers[-1].c_out


def test_mlp_biases_start_at_zero():
    model = build_model(parse_model_spec("mlp:20-8-4"), np.random.default_rng(5))
    for l in model.layers:
        assert np.all(l.bias.data == 0.0)


def test_init_is_kaiming_uniform():
    model = build_model(parse_model_spec("mlp:200-100-10"), np.random.default_rng(9))
    w = model.layers[0].weight.data
    bound = np.sqrt(6.0 / 200)
    assert w.min() >= -bound and w.max() <= bound
    # a sample this large should fill most of the interval
    assert w.max() > 0.9 * bound and w.min() < -0.9 * bound
    expected_std = bound / np.sqrt(3.0)
    assert abs(w.std() - expected_std) / expected_std < 0.05


def test_init_reproducible_from_seeded_rng():
    a = build_model(parse_model_spec("mlp:30-10"), np.random.default_rng(42))
    b = build_model(parse_model_spec("mlp:30-10"), np.random.default_rng(42))
    np.testing.assert_array_equal(a.layers[0].weight.data, b.layers[0].weight.data)


def test_parse_model_spec_round_trip():
    for text in ("mlp:784-300-100-10", "mlp:144-64-10", "small_convnet:3x32x32-10",
                 "small_convnet:1x28x28-10"):
        assert parse_model_spec(text).to_string() == text


def test_parse_model_spec_errors():
    for bad in ("mlp:784", "resnet:50", "small_convnet:3x32-10", "mlp:a-b",
                # sizes a model cannot be built or trained with
                "mlp:144-0-10", "mlp:0-10", "small_convnet:0x32x32-10",
                "small_convnet:3x0x32-10", "small_convnet:3x32x32-0", "small_convnet:1x14x14-10"):
        with pytest.raises(ValueError):
            parse_model_spec(bad)


def test_build_model_dispatch():
    m = build_model(parse_model_spec("mlp:16-4"), np.random.default_rng(0))
    assert [l.name for l in m.layers] == ["fc1"]
    m = build_model(parse_model_spec("small_convnet:1x28x28-10"), np.random.default_rng(0))
    assert [l.name for l in m.layers] == ["conv1", "conv2", "fc1", "fc2"]


def test_forward_and_predict_agree():
    # predict is forward without a tape, so the logits match bit for bit
    models = (build_model(parse_model_spec("small_convnet:1x12x12-10"), np.random.default_rng(1)),
              build_model(parse_model_spec("mlp:144-16-10"), np.random.default_rng(1)))
    x = np.random.default_rng(2).random((4, 1, 12, 12)).astype(np.float32)
    for model in models:
        training_logits = model.forward(x, [])
        plain_logits = model.predict(x)
        assert plain_logits.dtype == np.float32
        np.testing.assert_array_equal(training_logits, plain_logits)


def test_predict_runs_the_conv_stack_in_chunks_with_the_graph_bytes(monkeypatch):
    # a batch past the inference chunk, with a ragged tail, runs each conv
    # layer as three `_conv2d` calls and still gives the training forward's bytes
    model = build_model(parse_model_spec("small_convnet:3x8x8-10"), np.random.default_rng(4))
    x = np.random.default_rng(5).random((2 * CONV_CHUNK + 3, 3, 8, 8)).astype(np.float32)
    want = model.forward(x, [])
    calls = {}
    real_conv2d = models._conv2d

    def counting_conv2d(x, w, *args):
        calls.setdefault(w.shape, []).append(x.shape[0])
        return real_conv2d(x, w, *args)

    monkeypatch.setattr(models, "_conv2d", counting_conv2d)
    got = model.predict(x)
    chunks = [CONV_CHUNK, CONV_CHUNK, 3]
    assert calls == {(32, 3, 3, 3): chunks, (64, 32, 3, 3): chunks}
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_predict_memory_stays_below_one_full_batch_conv_output():
    model = build_model(parse_model_spec("small_convnet:3x32x32-10"), np.random.default_rng(6))
    n = 4 * CONV_CHUNK
    x = np.random.default_rng(7).random((n, 3, 32, 32)).astype(np.float32)
    model.predict(x[:1])  # first-call allocations (scipy, BLAS) stay out of the peak
    tracemalloc.start()
    try:
        model.predict(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * 32 * 32 * 32 * 4  # conv1's output for the whole batch


def test_predict_casts_float64_input_to_float32():
    model = build_model(parse_model_spec("small_convnet:1x12x12-10"), np.random.default_rng(1))
    x = np.random.default_rng(2).random((4, 1, 12, 12))
    np.testing.assert_array_equal(model.predict(x), model.predict(x.astype(np.float32)))


def test_predict_sparse_matches_dense():
    model = build_model(parse_model_spec("mlp:36-16-10"), np.random.default_rng(3))
    # half the first layer zeroed is above the crossover: every layer runs dense
    model.layers[0].weight.data[::2] = 0.0
    model.layers[0].bias.data[...] = 0.5  # the CSR path adds the bias itself
    x = np.random.default_rng(4).random((5, 36)).astype(np.float32)
    assert model.predict(x, sparse=True).tobytes() == model.predict(x).tobytes()
    # four weights left in the first layer are below it: that layer runs as CSR
    w = model.layers[0].weight.data
    w[4:] = 0.0
    w[:, 1:] = 0.0
    assert np.count_nonzero(w) < models.CSR_DENSITY_CROSSOVER * w.size
    np.testing.assert_allclose(model.predict(x), model.predict(x, sparse=True), atol=1e-5)


def test_sparse_forward_refuses_a_tape():
    model = build_model(parse_model_spec("mlp:36-16-10"), np.random.default_rng(3))
    with pytest.raises(ValueError, match="tape"):
        model.forward(np.zeros((2, 36), dtype=np.float32), [], sparse=True)


def test_mlp_accepts_image_shaped_input():
    model = build_model(parse_model_spec("mlp:144-16-10"), np.random.default_rng(0))
    x = np.random.default_rng(1).random((2, 1, 12, 12)).astype(np.float32)
    assert model.forward(x, []).shape == (2, 10)
    assert model.predict(x).shape == (2, 10)


def test_descriptor_matches_built_model():
    model = build_model(parse_model_spec("small_convnet:3x32x32-10"), np.random.default_rng(0))
    desc = model.descriptor()
    kinds = [(s.name, s.kind) for s in desc.layers]
    assert kinds == [("conv1", "conv"), ("conv2", "conv"), ("fc1", "linear"), ("fc2", "linear")]
    conv2 = desc.layers[1]
    assert (conv2.c_in, conv2.c_out, conv2.kh, conv2.kw) == (32, 64, 3, 3)
    assert (conv2.out_h, conv2.out_w) == (16, 16)


def test_descriptor_library_contents():
    lib = descriptor_library()
    assert set(lib) == {"vgg16-cifar", "resnet34-cifar", "resnet50-imagenet",
                        "efficientnetb0-tiny"}
    for name, desc in lib.items():
        assert desc.layers, name
        for s in desc.layers:
            assert s.weight_count() > 0 or s.kind == "bn"


def test_vgg16_cifar_parameter_total():
    desc = descriptor_library()["vgg16-cifar"]
    assert sum(s.param_count() for s in desc.layers) == 14_990_922


def test_resnet34_cifar_parameter_total():
    desc = descriptor_library()["resnet34-cifar"]
    assert sum(s.param_count() for s in desc.layers) == 21_282_122


def _models_under_test():
    rng = np.random.default_rng(11)
    return [
        (build_model(parse_model_spec("mlp:144-16-10"), rng), (3, 1, 12, 12)),
        (build_model(parse_model_spec("mlp:36-8-6-4"), rng), (3, 36)),
        (build_model(parse_model_spec("mlp:784-300-100-10"), rng), (2, 1, 28, 28)),
        (build_model(parse_model_spec("small_convnet:1x12x12-10"), rng), (3, 1, 12, 12)),
        (build_model(parse_model_spec("small_convnet:3x16x20-7"), rng), (2, 3, 16, 20)),
        (build_model(parse_model_spec("small_convnet:3x32x32-10"), rng), (2, 3, 32, 32)),
    ]


def test_descriptor_matches_the_shapes_forward_produces(monkeypatch):
    # record what each layer op of a real forward consumes and produces
    seen = []

    def linear(x, w, b):
        y = linear_forward(x, w, b)
        seen.append(("linear", w.data.shape, x.shape, y.shape))
        return y

    def conv2d(x, w, b):
        y = conv2d_forward(x, w, b)
        seen.append(("conv", w.data.shape, x.shape, y.shape))
        return y

    # the training kernels by the names `models` imports them under
    monkeypatch.setattr(models, "linear_forward", linear)
    monkeypatch.setattr(models, "conv2d_forward", conv2d)
    for model, x_shape in _models_under_test():
        seen.clear()
        x = np.random.default_rng(0).random(x_shape).astype(np.float32)
        model.forward(x, [])
        desc = model.descriptor()
        assert [s.name for s in desc.layers] == [l.name for l in model.layers]
        assert [s.name for s in desc.sparsifiable_layers()] == [l.name for l in model.layers]
        macs = 0
        for spec, (kind, w_shape, x_in, y_out) in zip(desc.layers, seen, strict=True):
            assert spec.kind == kind
            if kind == "conv":
                c_out, c_in, kh, kw = w_shape
                assert x_in[1] == c_in and y_out[1] == c_out
                assert (spec.out_h, spec.out_w) == y_out[2:]
                layer_macs = c_out * y_out[2] * y_out[3] * c_in * kh * kw
            else:
                assert x_in[1] == w_shape[1] and y_out[1] == w_shape[0]
                c_out, c_in, kh, kw = w_shape[0], x_in[1], 1, 1
                assert (spec.out_h, spec.out_w) == (1, 1)
                layer_macs = c_out * c_in
            assert (spec.c_out, spec.c_in, spec.kh, spec.kw) == (c_out, c_in, kh, kw)
            assert spec.macs() == layer_macs
            macs += layer_macs
        assert inference_flops(desc) == 2 * macs
        assert desc.classes == model.spec.classes == seen[-1][3][1]


def _explicit_logits(model, x: np.ndarray) -> np.ndarray:
    # the layer sequence each model kind runs, spelled out op by op
    def relu(a):
        return np.maximum(a, 0)

    if model.spec.kind == "mlp":
        h = x.reshape(len(x), -1)
        for layer in model.layers[:-1]:
            h = relu(linear_forward(h, layer.weight, layer.bias))
    else:
        conv1, conv2, fc1, _ = model.layers
        h = relu(maxpool2x2(conv2d_forward(x, conv1.weight, conv1.bias)))
        h = relu(maxpool2x2(conv2d_forward(h, conv2.weight, conv2.bias)))
        h = relu(linear_forward(h.reshape(len(h), -1), fc1.weight, fc1.bias))
    last = model.layers[-1]
    return linear_forward(h, last.weight, last.bias)


def test_forward_is_byte_equal_to_the_explicit_op_sequence():
    for model, x_shape in _models_under_test():
        x = np.random.default_rng(3).random(x_shape).astype(np.float32)
        expected = _explicit_logits(model, x).tobytes()
        tape = []
        assert model.forward(x, tape).tobytes() == expected
        # a conv layer keeps its input and pool routes, a linear layer its input
        assert len(tape) == sum(2 if layer.kind == "conv" else 1 for layer in model.layers)
        assert model.forward(x).tobytes() == expected
