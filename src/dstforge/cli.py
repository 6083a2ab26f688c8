"""Command-line entry point.

DSTFORGE_THREADS caps BLAS parallelism; the translation into the usual
OMP/OPENBLAS/MKL variables must happen before numpy first loads, which is why
it sits above every other import here.
"""

from __future__ import annotations

import os


def _pin_threads():
    n = os.environ.get("DSTFORGE_THREADS")
    if n:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            os.environ[var] = n


_pin_threads()

import argparse
import dataclasses
import json
import sys

import numpy as np

from .checkpoint import CheckpointError, load_checkpoint
from .config import ConfigError, load_config
from .corruption import KINDS, build_corrupted_set
from .data import (
    DataError,
    load_idx,
    load_image_set,
    parse_corrupted_set_filename,
    write_corrupted_sets,
)
from .metrics import CostReport, attach_baseline, inference_flops, param_count, training_flops
from .models import build_model, descriptor_library, parse_model_spec
from .schedulers import METHODS, DstConfig, synthetic_trajectory
from .sparsity import allocate_erk, allocate_uniform
from .spectral import KernelHeatmap, kernel_nonzero_counts, write_ra_curves_svg
from .svg import grid_heatmap
from .train import PROBE_METHODS, DivergenceError, run_eval, run_train


def _stem(path: str) -> str:
    return os.path.basename(path).rsplit(".", 1)[0]


def _load_dataset(path: str, classes: int = 10):
    """Load a dataset file argument: a persisted single-file set (corrupted
    output or raw CIFAR batch) or a raw IDX images file with its labels file
    found by name."""
    try:
        return load_image_set(path, classes=classes)
    except DataError:
        return load_idx(path, classes=classes)


def _csv_ints(raw: str) -> list[int]:
    try:
        return [int(tok) for tok in raw.split(",") if tok != ""]
    except ValueError:
        raise ConfigError(f"expected comma-separated integers, got {raw!r}") from None


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    path = run_train(cfg, resume_path=args.resume,
                     stop_after_step=args.stop_after_step, echo=print)
    print(f"checkpoint: {path}")
    return 0


def cmd_corrupt(args) -> int:
    kinds = args.kinds.split(",") if args.kinds else list(KINDS)
    for k in kinds:
        if k not in KINDS:
            raise ConfigError(f"unknown corruption kind {k!r}; known: {', '.join(KINDS)}")
    severities = _csv_ints(args.severities) if args.severities else [1, 2, 3, 4, 5]
    for s in severities:
        if not 1 <= s <= 5:
            raise ConfigError(f"severity {s} outside 1..5")
    clean = _load_dataset(args.dataset)
    sets = build_corrupted_set(clean, kinds, severities, seed=args.seed)
    out_dir = args.out or (os.path.dirname(args.dataset) or ".")
    paths = write_corrupted_sets(sets, out_dir, _stem(args.dataset))
    for p in paths:
        print(p)
    return 0


def _expand_sets(tokens: list[str]) -> list[str]:
    paths = []
    for tok in tokens:
        if os.path.isdir(tok):
            paths.extend(sorted(
                os.path.join(tok, f) for f in os.listdir(tok) if f.endswith(".bin")))
        else:
            paths.append(tok)
    if not paths:
        raise DataError("no corrupted-set files found")
    return paths


def cmd_evaluate(args) -> int:
    sets = {}
    for p in _expand_sets(args.sets.split(",")):
        _, kind, sev = parse_corrupted_set_filename(p)
        sets[(kind, sev)] = load_image_set(p)
    report = run_eval(args.ckpt, corrupted_sets=sets)
    if args.baseline:
        report = attach_baseline(report, run_eval(args.baseline, corrupted_sets=sets))
    if args.csv:
        report.write_csv(args.csv)
    text = report.to_json()
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


def cmd_attenuate(args) -> int:
    clean = _load_dataset(args.images)
    radii = _csv_ints(args.radii)
    curve = run_eval(args.ckpt, attenuation=(clean, args.mode, radii))
    curve = dataclasses.replace(curve, model_id=_stem(args.ckpt))
    doc = json.dumps({
        "model": curve.model_id,
        "mode": curve.mode,
        "points": [{"radius": r, "accuracy": a} for r, a in curve.points],
    }, indent=2, sort_keys=True)
    if args.svg:
        write_ra_curves_svg([curve], args.svg)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(doc + "\n")
    print(doc)
    return 0


def _layer_heatmap(ck, name: str) -> KernelHeatmap:
    model = ck.build_model()
    layer = model.layer_by_name(name)
    mask = ck.mask()
    m = mask[name] if mask is not None and name in mask else np.ones(
        layer.weight.data.shape, dtype=bool)
    if layer.kind == "conv":
        return kernel_nonzero_counts(layer, m)
    return KernelHeatmap(layer=name, kind="count", matrix=m.astype(np.int64))


def cmd_inspect(args) -> int:
    ck = load_checkpoint(args.ckpt)
    mask = ck.mask()
    print(f"model    {ck.model_spec}")
    print(f"step     {ck.step}")
    print(f"seed     {ck.seed}")
    print(f"method   {ck.dst_config['method']}")
    rows = []
    for name, w, *_ in ck.layers:
        if mask is not None and name in mask:
            active, total = mask.active_count(name), mask[name].size
        else:
            active, total = w.size, w.size
        rows.append((name, "x".join(str(d) for d in w.shape), active, total))
    print(f"density  {sum(r[2] for r in rows) / sum(r[3] for r in rows):.6f}")
    print(f"{'layer':<16} {'shape':<16} {'active':>10} {'total':>10} density")
    for name, shape, active, total in rows:
        print(f"{name:<16} {shape:<16} {active:>10} {total:>10} {active / total:.6f}")

    if args.layer:
        hm = _layer_heatmap(ck, args.layer)
        counts = np.bincount(hm.matrix.reshape(-1).astype(np.int64), minlength=10)
        print(f"\nlayer {args.layer}: kernel nonzero counts, total {int(hm.total())}")
        for value, n in enumerate(counts):
            if n:
                print(f"  count {value}: {int(n)} kernels")
        if args.svg:
            grid_heatmap(hm.matrix, f"{args.layer} nonzero counts", args.svg)
        if args.json:
            with open(args.json, "w") as fh:
                json.dump({
                    "layer": args.layer,
                    "kind": hm.kind,
                    "total": int(hm.total()),
                    "matrix": hm.matrix.tolist(),
                }, fh, indent=2, sort_keys=True)
                fh.write("\n")
    return 0


def _arch_descriptor(name: str):
    lib = descriptor_library()
    if name in lib:
        return lib[name]
    try:
        spec = parse_model_spec(name)
    except ValueError:
        raise ConfigError(
            f"unknown arch {name!r}; provide one of {', '.join(sorted(lib))} "
            f"or a model spec string") from None
    return build_model(spec, np.random.default_rng(0)).descriptor()


def _default_images_per_epoch(arch: str) -> int:
    if "imagenet" in arch:
        return 1_281_167
    if "tiny" in arch:
        return 100_000
    return 50_000


def cmd_flops(args) -> int:
    desc = _arch_descriptor(args.arch)
    if args.density is not None and args.sparsity is not None:
        raise ConfigError("give either --density or --sparsity, not both")
    sparsity = args.sparsity if args.sparsity is not None else (
        1.0 - args.density if args.density is not None else 0.0)
    if args.method == "dense" and sparsity != 0.0:
        raise ConfigError("dense takes no --density/--sparsity")
    if args.method != "dense" and sparsity == 0.0:
        raise ConfigError(f"{args.method} needs --density or --sparsity")
    images = args.images_per_epoch or _default_images_per_epoch(args.arch)
    steps = args.epochs * (images // args.bs)
    try:
        dst = DstConfig(method=args.method, sparsity=sparsity,
                        total_steps=steps, delta_t=args.delta_t)
        alloc = None
        if args.method != "dense":
            alloc_fn = allocate_erk if args.dist == "erk" else allocate_uniform
            alloc = alloc_fn(desc, sparsity)
    except ValueError as e:
        raise ConfigError(str(e)) from None
    traj = synthetic_trajectory(dst)
    final_density = traj.samples[-1][1]
    probes = 0
    if args.method in PROBE_METHODS and not args.no_probe:
        probes = len(traj.samples) - 1
    report = CostReport(
        arch=args.arch,
        method=args.method,
        density=final_density,
        inference_flops=inference_flops(
            desc, alloc,
            density_scale=(final_density / alloc.global_density) if alloc else 1.0),
        training_flops=training_flops(desc, alloc, traj, steps, args.bs, probe_events=probes),
        param_count=param_count(desc, alloc),
        trajectory=list(traj.samples),
        probe_events=probes,
    )
    print(report.to_json())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dstforge",
        description="dynamic sparse training laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run a training config")
    p.add_argument("config")
    p.add_argument("--resume", help="checkpoint to continue from")
    p.add_argument("--stop-after-step", type=int, default=None,
                   help="checkpoint and stop after this optimizer step")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("corrupt", help="generate corrupted copies of a test set")
    p.add_argument("dataset", help="images file (IDX or CIFAR binary)")
    p.add_argument("--kinds", help="comma-separated kinds (default: all)")
    p.add_argument("--severities", help="comma-separated severities (default: 1-5)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output directory (default: alongside the input)")
    p.set_defaults(fn=cmd_corrupt)

    p = sub.add_parser("evaluate", help="robustness accuracy of a checkpoint")
    p.add_argument("ckpt")
    p.add_argument("--sets", required=True,
                   help="comma-separated corrupted-set files or directories")
    p.add_argument("--baseline", help="checkpoint to compute relative gains against")
    p.add_argument("--csv", help="write per-cell accuracies here")
    p.add_argument("--json", help="write the report here as well as stdout")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("attenuate", help="accuracy under frequency attenuation")
    p.add_argument("ckpt")
    p.add_argument("--mode", required=True, choices=("low", "high"))
    p.add_argument("--radii", required=True, help="comma-separated radii")
    p.add_argument("--images", required=True, help="clean evaluation set")
    p.add_argument("--svg", help="write the RA curve plot here")
    p.add_argument("--json", help="write the curve here as well as stdout")
    p.set_defaults(fn=cmd_attenuate)

    p = sub.add_parser("inspect", help="checkpoint summary and kernel heatmaps")
    p.add_argument("ckpt")
    p.add_argument("--layer", help="show this layer's kernel nonzero counts")
    p.add_argument("--svg", help="write the heatmap here (needs --layer)")
    p.add_argument("--json", help="write the heatmap matrix here (needs --layer)")
    p.set_defaults(fn=cmd_inspect)

    p = sub.add_parser("flops", help="inference/training cost estimates")
    p.add_argument("arch", help="library arch name or model spec string")
    p.add_argument("--method", default="dense", choices=METHODS)
    p.add_argument("--density", type=float, default=None)
    p.add_argument("--sparsity", type=float, default=None)
    p.add_argument("--epochs", type=int, required=True)
    p.add_argument("--bs", type=int, required=True)
    p.add_argument("--delta-t", type=int, default=500)
    p.add_argument("--dist", default="erk", choices=("erk", "uniform"))
    p.add_argument("--images-per-epoch", type=int, default=None,
                   help="default: 50000, or 1281167/*imagenet*, 100000/*tiny*")
    p.add_argument("--no-probe", action="store_true",
                   help="exclude dense-gradient probe cost from TrFLOPs")
    p.set_defaults(fn=cmd_flops)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (DataError, CheckpointError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3
    except DivergenceError as e:
        print(f"training failed: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
