"""What the library loads: scipy's submodules only where a command uses them."""

import os
import subprocess
import sys

from conftest import toy_config

# Trains an MLP and a small_convnet and counts their FLOPs, none of which
# needs scipy.ndimage or scipy.sparse; then renders one blur cell, which
# loads ndimage.
_CHILD = """
import sys

import dstforge.cli
import dstforge.study
import dstforge.train
from dstforge.config import parse_config
from dstforge.corruption import build_corrupted_set
from dstforge.data import load_idx

idx_dir, *configs = sys.argv[1:]
for text in configs:
    dstforge.train.run_train(parse_config(text))
assert dstforge.cli.main(["flops", "mlp:144-64-10", "--epochs", "1", "--bs", "50"]) == 0
loaded = [m for m in ("scipy.ndimage", "scipy.sparse") if m in sys.modules]
assert not loaded, f"loaded before any blur: {loaded}"

test = load_idx(f"{idx_dir}/t10k-images-idx3-ubyte", f"{idx_dir}/t10k-labels-idx1-ubyte")
build_corrupted_set(test, ("gaussian_blur",), (1,))
assert "scipy.ndimage" in sys.modules
"""


def test_scipy_ndimage_and_sparse_load_only_when_used(idx_dir, tmp_path):
    configs = [toy_config(idx_dir, str(tmp_path / "mlp"), epochs=1),
               toy_config(idx_dir, str(tmp_path / "conv"), epochs=1,
                          model="small_convnet:1x12x12-10")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    r = subprocess.run([sys.executable, "-c", _CHILD, idx_dir, *configs],
                       capture_output=True, text=True, env=env, timeout=300)
    assert r.returncode == 0, r.stderr[-2000:]
    assert os.path.exists(tmp_path / "mlp" / "final.ckpt")
    assert os.path.exists(tmp_path / "conv" / "final.ckpt")
