"""What the library loads: no scipy submodule, unless a sparse predict meets a
linear layer below the CSR crossover."""

import os
import subprocess
import sys

from conftest import make_blob_set, toy_config, write_idx_pair

# Trains an MLP and a small_convnet and counts their FLOPs; renders all ten
# corruption kinds, evaluates both checkpoints on them and on attenuation,
# runs a 1-epoch study, and predicts with sparse=True on an ERK-0.5 model,
# none of which loads scipy.ndimage or scipy.sparse. Then a sparse predict on
# a model with a layer below the crossover loads scipy.sparse.
_CHILD = """
import sys

import numpy as np

import dstforge.cli
import dstforge.train
from dstforge.config import parse_config
from dstforge.corruption import KINDS, build_corrupted_set
from dstforge.data import load_idx
from dstforge.models import CSR_DENSITY_CROSSOVER, build_model, parse_model_spec
from dstforge.sparsity import allocate_erk, apply_mask, init_topology, mask_shapes
from dstforge.study import StudyMethod, find_idx_dataset, run_study


def loaded():
    return [m for m in ("scipy.ndimage", "scipy.sparse") if m in sys.modules]


idx_dir, idx28_dir, study_root, *configs = sys.argv[1:]
ckpts = [dstforge.train.run_train(parse_config(text)) for text in configs]
assert dstforge.cli.main(["flops", "mlp:144-64-10", "--epochs", "1", "--bs", "50"]) == 0
assert not loaded(), f"loaded by training: {loaded()}"

test = load_idx(f"{idx_dir}/t10k-images-idx3-ubyte", f"{idx_dir}/t10k-labels-idx1-ubyte")
sets = build_corrupted_set(test, KINDS, (1, 5))
for ckpt in ckpts:
    dstforge.train.run_eval(ckpt, corrupted_sets=sets)
    for mode in ("low", "high"):
        dstforge.train.run_eval(ckpt, attenuation=(test, mode, (0, 2)))
run_study(find_idx_dataset(idx28_dir), study_root, epochs=1, seeds=(1,),
          methods=(StudyMethod("dense", "dense"), StudyMethod("set_s50", "set", 0.5)),
          radii=(2,))
assert not loaded(), f"loaded by corrupt, evaluate, attenuate or the study: {loaded()}"

model = build_model(parse_model_spec("mlp:144-64-10"), np.random.default_rng(0))
alloc = allocate_erk(model.descriptor(), 0.5)
apply_mask(model, init_topology(alloc, mask_shapes(model), np.random.default_rng(1)))
model.predict(test.images, sparse=True)
assert not loaded(), f"loaded by a sparse predict above the crossover: {loaded()}"

w = model.layers[0].weight.data
w[:, 1:] = 0.0
assert np.count_nonzero(w) < CSR_DENSITY_CROSSOVER * w.size
model.predict(test.images, sparse=True)
assert loaded() == ["scipy.sparse"], loaded()
"""


def test_scipy_loads_only_for_a_csr_layer(idx_dir, tmp_path):
    idx28_dir = str(tmp_path / "blobs28")  # the study's MLP takes 1x28x28
    os.mkdir(idx28_dir)
    write_idx_pair(idx28_dir, "train", *make_blob_set(200, seed=1, side=28))
    write_idx_pair(idx28_dir, "t10k", *make_blob_set(40, seed=2, side=28))
    configs = [toy_config(idx_dir, str(tmp_path / "mlp"), epochs=1),
               toy_config(idx_dir, str(tmp_path / "conv"), epochs=1,
                          model="small_convnet:1x12x12-10")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    argv = [idx_dir, idx28_dir, str(tmp_path / "study"), *configs]
    r = subprocess.run([sys.executable, "-c", _CHILD, *argv],
                       capture_output=True, text=True, env=env, timeout=300)
    assert r.returncode == 0, r.stderr[-2000:]
    assert os.path.exists(tmp_path / "mlp" / "final.ckpt")
    assert os.path.exists(tmp_path / "conv" / "final.ckpt")
    assert os.path.exists(tmp_path / "study" / "study.json")
