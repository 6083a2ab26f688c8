"""The benchmark's tracer hooks library names; the library keeps them.

perfbench/tracing.py wraps each `(module, attribute)` of its TARGETS and
reads the arguments to tag a span with a layer and a batch size. It counts
every span of the layer kernels and of `tensor.backward` as training work.
So a training step must call each kernel with the activation array and the
layer's parameters, and call `backward` once, and inference must call none
of them. The tracer and the synthetic data writers are loaded from
perfbench/ as they are, without edits.
"""

import importlib
import importlib.util
import os
from pathlib import Path

import pytest

from dstforge import metrics, train
from dstforge.checkpoint import load_checkpoint
from dstforge.config import parse_config
from dstforge.data import load_idx

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
KERNELS = ("tensor.linear_forward", "tensor.conv2d_forward", "tensor.maxpool2x2")
BATCH = 20


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
blobs = _load("blobs")


def test_every_traced_name_resolves():
    for module_name, attr, _name, _describe in tracing.TARGETS:
        obj = importlib.import_module(module_name)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"{module_name}.{attr}"


def _run_config(tmp_path, model: str, shape: tuple[int, int, int]) -> str:
    """A 1-epoch rigl run of `model` on 3 batches of blob images of `shape`."""
    data_dir = tmp_path / "data" / model.split(":")[0]
    data_dir.mkdir(parents=True)
    train_set = blobs.make_blob_set(3 * BATCH, 1, shape)
    test_set = blobs.make_blob_set(BATCH, 2, shape)
    if shape[0] == 1:
        tr = blobs.write_idx_pair(str(data_dir), "train", *train_set)
        te = blobs.write_idx_pair(str(data_dir), "t10k", *test_set)
        data = {"format": "idx", "train": tr[0], "train_labels": tr[1],
                "test": te[0], "test_labels": te[1]}
    else:
        data = {"format": "cifar",
                "train": blobs.write_cifar(str(data_dir / "train.bin"), *train_set),
                "test": blobs.write_cifar(str(data_dir / "test.bin"), *test_set)}
    out = tmp_path / "runs" / model.split(":")[0]
    return blobs.run_config(data, model, str(out), 3, 1, BATCH, 0.05, "rigl", 0.5, 1)


@pytest.fixture(scope="module")
def traced_spans(tmp_path_factory):
    """Spans of a tiny MLP run, a small_convnet:3x32x32-10 run and one
    `Model.predict` on the convnet's checkpoint, with the layer names of
    each model by run tag."""
    tmp = tmp_path_factory.mktemp("traced")
    configs = [parse_config(_run_config(tmp, "mlp:144-16-12-10", (1, 12, 12))),
               parse_config(_run_config(tmp, "small_convnet:3x32x32-10", (3, 32, 32)))]
    images = blobs.make_blob_set(BATCH, 4, (3, 32, 32))[0]
    for module_name, *_ in tracing.TARGETS:
        importlib.import_module(module_name)  # the tracer patches loaded modules only
    tracer = tracing.Tracer()
    tracer.install()
    try:
        ckpts = [train.run_train(cfg) for cfg in configs]  # by module: the tracer patches it there
        load_checkpoint(ckpts[-1]).build_model().predict(images)
    finally:
        tracer.uninstall()
    layers = {os.path.basename(cfg.out_dir): {s.name for s in cfg.model.descriptor().layers}
              for cfg in configs}
    return tracer, layers, {os.path.basename(cfg.out_dir): cfg.total_steps for cfg in configs}


def test_training_kernels_carry_the_layer_and_the_batch(traced_spans):
    tracer, layers, steps = traced_spans
    run_of = tracer.ancestors_named("train.run_train")
    for run, names in layers.items():
        spans = [s for i, s in enumerate(tracer.spans)
                 if run_of[i] >= 0 and tracer.spans[run_of[i]][1] == run]
        for kernel in KERNELS:
            tags = [s[1] for s in spans if s[0] == kernel]
            assert all(s[5] == BATCH for s in spans if s[0] == kernel), (run, kernel)
            if kernel == "tensor.maxpool2x2":  # a pool is tagged by its channel count
                assert tags == [t for t in ("c32", "c64") if "conv1" in names] * steps[run]
            else:
                prefix = "conv" if kernel == "tensor.conv2d_forward" else "fc"
                assert tags == sorted(n for n in names if n.startswith(prefix)) * steps[run]
        assert sum(s[0] == "tensor.backward" for s in spans) == steps[run]


def test_inference_runs_no_training_kernel(traced_spans):
    tracer, _, _ = traced_spans
    under_predict = tracer.ancestors_named("models.predict")
    run_of = tracer.ancestors_named("train.run_train")
    predicts = [s for i, s in enumerate(tracer.spans)
                if s[0] == "models.predict" and run_of[i] < 0]
    assert [(s[1], s[5]) for s in predicts] == [("small_convnet/dense", BATCH)]
    forwards = [i for i, s in enumerate(tracer.spans) if s[0] == "models.forward"]
    assert any(under_predict[i] >= 0 for i in forwards)
    for i, s in enumerate(tracer.spans):
        if s[0] in KERNELS or s[0] == "tensor.backward":
            assert under_predict[i] < 0, s
            assert run_of[i] >= 0, s


@pytest.fixture(scope="module")
def sparse_accuracy_spans(tmp_path_factory):
    """Spans of `metrics.accuracy(model, set, sparse=True)` on a trained MLP
    checkpoint and its test set, the call the benchmark's robustness round
    times."""
    cfg = parse_config(_run_config(tmp_path_factory.mktemp("sparse"), "mlp:144-16-12-10",
                                   (1, 12, 12)))
    model = load_checkpoint(train.run_train(cfg)).build_model()
    test_set = load_idx(cfg.test_images, cfg.test_labels)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        metrics.accuracy(model, test_set, sparse=True)  # by module: the tracer patches it there
    finally:
        tracer.uninstall()
    return tracer


def test_sparse_accuracy_runs_no_training_kernel(sparse_accuracy_spans):
    tracer = sparse_accuracy_spans
    under_accuracy = tracer.ancestors_named("metrics.accuracy")
    calls = [(s[0], s[1], s[5]) for s in tracer.spans if s[0] != "models.forward"]
    assert calls == [("metrics.accuracy", "mlp", BATCH), ("models.predict", "mlp/sparse", BATCH)]
    assert any(s[0] == "models.forward" for s in tracer.spans)
    for i, s in enumerate(tracer.spans):
        assert under_accuracy[i] >= 0, s
        assert s[0] not in KERNELS and s[0] != "tensor.backward", s
