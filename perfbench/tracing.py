"""Spans around dstforge's public functions, recorded from outside the package.

`Tracer.install` swaps each traced function for a wrapper in every loaded
dstforge module that holds a reference to it (modules import functions by
name, so patching only the defining module would miss most calls), and
`uninstall` puts the originals back. A span is [name, tag, start, end,
parent index, n]: `tag` names the layer, method or corruption kind, `n` the
batch size, image count or byte count. Spans stay in memory until `dump`.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time

_perf = time.perf_counter


def _layer_of(param) -> str:
    return param.name.split(".")[0]


def _n(a) -> int:
    return int(a.shape[0])


def _regrown_after(args):
    mask = args[1]
    before = {name: mask[name].copy() for name in mask.names()}
    return lambda _out: sum(int((~b & mask[name]).sum()) for name, b in before.items())


def _file_size_after(path):
    return lambda _out: os.path.getsize(path)


# (module, attribute, span name, describe(args, kwargs) -> (tag, n, after | None))
TARGETS = (
    ("dstforge.tensor", "linear_forward", "tensor.linear_forward",
     lambda a, k: (_layer_of(a[1]), _n(a[0].data), None)),
    ("dstforge.tensor", "conv2d_forward", "tensor.conv2d_forward",
     lambda a, k: (_layer_of(a[1]), _n(a[0].data), None)),
    ("dstforge.tensor", "maxpool2x2", "tensor.maxpool2x2",
     lambda a, k: (f"c{a[0].data.shape[1]}", _n(a[0].data), None)),
    ("dstforge.tensor", "backward", "tensor.backward", None),
    ("dstforge.optim", "sgd_momentum_step", "optim.sgd_step", None),
    ("dstforge.sparsity", "apply_mask", "sparsity.apply_mask", None),
    ("dstforge.models", "Model.forward", "models.forward",
     lambda a, k: ("", _n(a[1].data), None)),
    ("dstforge.models", "Model.predict", "models.predict",  # tagged "<model kind>/<path>"
     lambda a, k: (a[0].spec.kind + ("/sparse" if k.get("sparse", a[2] if len(a) > 2 else False)
                                     else "/dense"), len(a[1]), None)),
    ("dstforge.schedulers", "topology_update", "schedulers.topology_update",
     lambda a, k: (a[3].method, 0, _regrown_after(a))),
    ("dstforge.train", "run_train", "train.run_train",  # tagged by run directory
     lambda a, k: (os.path.basename(a[0].out_dir), 0, None)),
    ("dstforge.train", "test_accuracy", "train.test_accuracy", lambda a, k: ("", _n(a[1]), None)),
    ("dstforge.metrics", "accuracy", "metrics.accuracy",
     lambda a, k: (a[0].spec.kind, len(a[1]), None)),
    ("dstforge.corruption", "corrupt_images", "corruption.corrupt_images",
     lambda a, k: (a[1].kind, _n(a[0]), None)),
    ("dstforge.spectral", "attenuate_images", "spectral.attenuate_images",
     lambda a, k: (a[1], _n(a[0]), None)),
    ("dstforge.spectral", "ra_curve", "spectral.ra_curve", None),
    ("dstforge.data", "load_idx", "data.load", None),
    ("dstforge.data", "load_cifar_binary", "data.load", None),
    ("dstforge.data", "save_image_set", "data.save_image_set", None),
    ("dstforge.data", "load_image_set", "data.load_image_set", None),
    ("dstforge.checkpoint", "save_checkpoint", "checkpoint.save",
     lambda a, k: ("", 0, _file_size_after(a[0]))),
    ("dstforge.checkpoint", "load_checkpoint", "checkpoint.load", None),
    ("dstforge.study", "ensure_corrupted_set", "study.ensure_corrupted_set", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, fn, name, describe):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tag, n, after = describe(args, kwargs) if describe else ("", 0, None)
            rec = [name, tag, 0.0, 0.0, stack[-1] if stack else -1, n]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = _perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = _perf()
                stack.pop()
            if after is not None:
                rec[5] = after(out)
            return out

        return traced

    def install(self):
        mods = [m for k, m in sys.modules.items() if k.split(".")[0] == "dstforge" and m]
        for mod_name, attr, name, describe in TARGETS:
            owner = sys.modules[mod_name]
            if "." in attr:  # a method: patch the class attribute
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(orig, name, describe))
                self._undo.append((cls, meth, orig))
                continue
            orig = getattr(owner, attr)
            traced = self._wrap(orig, name, describe)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, traced)
                        self._undo.append((mod, key, orig))

    def uninstall(self):
        for obj, key, orig in reversed(self._undo):
            setattr(obj, key, orig)
        self._undo.clear()

    def dump(self, path):
        with open(path, "w") as fh:
            for name, tag, t0, t1, parent, n in self.spans:
                fh.write(json.dumps({"name": name, "tag": tag, "start": t0, "end": t1,
                                     "parent": parent, "n": n}) + "\n")

    def wrapper_cost_us(self, calls: int = 20000) -> float:
        """Time a span adds to a call: a wrapped no-op against a bare one,
        recorded into a scratch tracer so this tracer's spans stay as they are."""
        def noop(*_args):
            return None

        traced = Tracer()._wrap(noop, "noop", None)
        t0 = _perf()
        for _ in range(calls):
            noop(1)
        t1 = _perf()
        for _ in range(calls):
            traced(1)
        t2 = _perf()
        return ((t2 - t1) - (t1 - t0)) / calls * 1e6

    # -- queries ------------------------------------------------------------

    def select(self, name, tag=None):
        return [s for s in self.spans if s[0] == name and (tag is None or s[1] == tag)]

    def median_ms(self, name, tag=None, where=None) -> float:
        d = [(s[3] - s[2]) * 1e3 for s in self.select(name, tag) if where is None or where(s)]
        return statistics.median(d) if d else 0.0

    def median_us_per_item(self, name, tag=None) -> float:
        d = [(s[3] - s[2]) * 1e6 / s[5] for s in self.select(name, tag) if s[5]]
        return statistics.median(d) if d else 0.0

    def ancestors_named(self, name) -> list[int]:
        """For each span, the index of its closest ancestor (or itself)
        called `name`, else -1."""
        out = []
        for i, (n, _tag, _t0, _t1, parent, _k) in enumerate(self.spans):
            out.append(i if n == name else (out[parent] if parent >= 0 else -1))
        return out
