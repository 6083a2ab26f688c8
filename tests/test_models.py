"""Model builders, spec strings, descriptors, and the architecture library."""

import numpy as np
import pytest

from dstforge.models import (
    build_mlp,
    build_model,
    build_small_convnet,
    descriptor_library,
    parse_model_spec,
)
from dstforge.tensor import Tensor


def _param_count(model) -> int:
    return sum(p.data.size for p in model.parameters())


def test_mlp_parameter_count_anchor():
    # 784*300 + 300*100 + 100*10 = 266,200 weights plus 410 biases.
    model = build_mlp((784, 300, 100, 10), np.random.default_rng(0))
    weights = sum(l.weight.data.size for l in model.layers)
    biases = sum(l.bias.data.size for l in model.layers)
    assert weights == 266_200
    assert biases == 410
    assert _param_count(model) == 266_610


def test_small_convnet_parameter_count_anchor():
    model = build_small_convnet((3, 32, 32), 10, np.random.default_rng(0))
    # conv1 3->32 3x3, conv2 32->64 3x3, fc1 64*8*8->128, fc2 128->10
    assert _param_count(model) == 545_098


def test_small_convnet_layer_shapes():
    model = build_small_convnet((3, 32, 32), 10, np.random.default_rng(0))
    shapes = {l.name: l.weight.data.shape for l in model.layers}
    assert shapes == {
        "conv1": (32, 3, 3, 3),
        "conv2": (64, 32, 3, 3),
        "fc1": (128, 64 * 8 * 8),
        "fc2": (10, 128),
    }
    for l in model.layers:
        if l.kind == "conv":
            assert l.padding == 1


def test_small_convnet_needs_divisible_dims():
    with pytest.raises(ValueError):
        build_small_convnet((3, 30, 32), 10, np.random.default_rng(0))


def test_mlp_biases_start_at_zero():
    model = build_mlp((20, 8, 4), np.random.default_rng(5))
    for l in model.layers:
        assert np.all(l.bias.data == 0.0)


def test_init_is_kaiming_uniform():
    model = build_mlp((200, 100, 10), np.random.default_rng(9))
    w = model.layers[0].weight.data
    bound = np.sqrt(6.0 / 200)
    assert w.min() >= -bound and w.max() <= bound
    # a sample this large should fill most of the interval
    assert w.max() > 0.9 * bound and w.min() < -0.9 * bound
    expected_std = bound / np.sqrt(3.0)
    assert abs(w.std() - expected_std) / expected_std < 0.05


def test_init_reproducible_from_seeded_rng():
    a = build_mlp((30, 10), np.random.default_rng(42))
    b = build_mlp((30, 10), np.random.default_rng(42))
    np.testing.assert_array_equal(a.layers[0].weight.data, b.layers[0].weight.data)


def test_parse_model_spec_round_trip():
    for text in ("mlp:784-300-100-10", "mlp:144-64-10", "small_convnet:3x32x32-10",
                 "small_convnet:1x28x28-10"):
        assert parse_model_spec(text).to_string() == text


def test_parse_model_spec_errors():
    for bad in ("mlp:784", "resnet:50", "small_convnet:3x32-10", "mlp:a-b"):
        with pytest.raises(ValueError):
            parse_model_spec(bad)


def test_build_model_dispatch():
    m = build_model(parse_model_spec("mlp:16-4"), np.random.default_rng(0))
    assert [l.name for l in m.layers] == ["fc1"]
    m = build_model(parse_model_spec("small_convnet:1x28x28-10"), np.random.default_rng(0))
    assert [l.name for l in m.layers] == ["conv1", "conv2", "fc1", "fc2"]


def test_forward_and_predict_agree():
    # predict is forward under no_grad, so the logits match bit for bit
    models = (build_small_convnet((1, 12, 12), 10, np.random.default_rng(1)),
              build_mlp((144, 16, 10), np.random.default_rng(1)))
    x = np.random.default_rng(2).random((4, 1, 12, 12)).astype(np.float32)
    for model in models:
        graph_logits = model.forward(Tensor(x)).data
        plain_logits = model.predict(x)
        assert plain_logits.dtype == np.float32
        np.testing.assert_array_equal(graph_logits, plain_logits)


def test_predict_casts_float64_input_to_float32():
    model = build_small_convnet((1, 12, 12), 10, np.random.default_rng(1))
    x = np.random.default_rng(2).random((4, 1, 12, 12))
    np.testing.assert_array_equal(model.predict(x), model.predict(x.astype(np.float32)))


def test_predict_sparse_matches_dense():
    model = build_mlp((36, 16, 10), np.random.default_rng(3))
    # zero half the first layer to make the sparse path meaningful
    model.layers[0].weight.data[::2] = 0.0
    x = np.random.default_rng(4).random((5, 36)).astype(np.float32)
    np.testing.assert_allclose(model.predict(x), model.predict(x, sparse=True), atol=1e-5)


def test_sparse_forward_needs_no_grad():
    model = build_mlp((36, 16, 10), np.random.default_rng(3))
    with pytest.raises(ValueError, match="no_grad"):
        model.forward(Tensor(np.zeros((2, 36), dtype=np.float32)), sparse=True)


def test_mlp_accepts_image_shaped_input():
    model = build_mlp((144, 16, 10), np.random.default_rng(0))
    x = np.random.default_rng(1).random((2, 1, 12, 12)).astype(np.float32)
    assert model.forward(Tensor(x)).data.shape == (2, 10)
    assert model.predict(x).shape == (2, 10)


def test_layer_by_name():
    model = build_mlp((10, 5, 2), np.random.default_rng(0))
    assert model.layer_by_name("fc2").weight.data.shape == (2, 5)
    with pytest.raises(KeyError):
        model.layer_by_name("conv9")


def test_descriptor_matches_built_model():
    model = build_small_convnet((3, 32, 32), 10, np.random.default_rng(0))
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
