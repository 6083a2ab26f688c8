"""Command-line entry point. Every command exits 0 on success, 2 on a
ConfigError (or `run_study`'s ValueError), 3 on a DataError, CheckpointError
or StudyError and 1 when training diverges, each error one line on stderr.

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
from .corruption import KINDS, SEVERITIES, CorruptionSpec, build_corrupted_set
from .data import (
    DataError,
    _stem,
    atomic_write,
    load_image_set,
    parse_corrupted_set_filename,
    write_corrupted_sets,
)
from .metrics import attach_baseline, cost_report, robustness_accuracy
from .models import descriptor_library, parse_model_spec
from .schedulers import METHODS, DstConfig, synthetic_trajectory
from .sparsity import ALLOCATORS, DENSE
from .spectral import check_radii, write_ra_curves_svg
from .study import DEFAULT_SEEDS, StudyError, find_idx_dataset, run_study
from .svg import grid_heatmap
from .train import DivergenceError, run_eval, run_train


def _csv_ints(raw: str, flag: str) -> list[int]:
    try:
        return [int(tok) for tok in raw.split(",")]
    except ValueError:
        raise ConfigError(f"{flag} must be comma-separated integers, got {raw!r}") from None


def _check_outputs(*paths):
    """Refuse, before any work is done, an output file that cannot be
    written: one that names a directory or lies in a missing one."""
    for path in filter(None, paths):
        parent = os.path.dirname(os.path.abspath(path))
        if os.path.isdir(path):
            raise DataError(f"cannot write {path}: it is a directory")
        if not os.path.isdir(parent):
            raise DataError(f"cannot write {path}: no directory {parent}")


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    path = run_train(cfg, resume_path=args.resume,
                     stop_after_step=args.stop_after_step, echo=print)
    print(f"checkpoint: {path}")
    return 0


def cmd_corrupt(args) -> int:
    kinds = args.kinds.split(",") if args.kinds else KINDS
    severities = _csv_ints(args.severities, "--severities") if args.severities else SEVERITIES
    try:  # a cell named twice is written once
        specs = [CorruptionSpec(kind, sev, args.seed)
                 for kind in dict.fromkeys(kinds) for sev in dict.fromkeys(severities)]
    except ValueError as e:  # CorruptionSpec's messages open with the field the flag sets
        field, _, rest = str(e).partition(" ")
        flag = {"kind": "--kinds", "severity": "--severities", "seed": "--seed"}[field]
        raise ConfigError(f"{flag} {rest}") from None
    clean = load_image_set(args.dataset)
    out_dir = args.out or (os.path.dirname(args.dataset) or ".")
    # one rendered cell in memory at a time: a full grid of a real test set
    # would hold gigabytes
    for spec in specs:
        cell = build_corrupted_set(clean, [spec.kind], [spec.severity], seed=spec.seed)
        for p in write_corrupted_sets(cell, out_dir, _stem(args.dataset)):
            print(p)
    return 0


def _is_grid_cell(name: str) -> bool:
    """Whether a file name is `<base>-<kind>-s<severity>.bin` of a known cell."""
    _, kind, sev = parse_corrupted_set_filename(name)
    return name.endswith(".bin") and kind in KINDS and sev in SEVERITIES


def _expand_sets(tokens: list[str]) -> list[str]:
    """Set files named on the command line, each directory expanded to the
    corrupted-set files in it; other files there (the clean test set, a
    training batch) are left out."""
    paths = []
    for tok in tokens:
        if os.path.isdir(tok):
            paths.extend(sorted(os.path.join(tok, f) for f in os.listdir(tok) if _is_grid_cell(f)))
        else:
            paths.append(tok)
    if not paths:
        raise DataError(f"no corrupted-set files found in {', '.join(tokens)}")
    return paths


def cmd_evaluate(args) -> int:
    _check_outputs(args.csv, args.json)
    sets = {}
    for p in _expand_sets(args.sets.split(",")):
        _, kind, sev = parse_corrupted_set_filename(p)
        if sets.setdefault((kind, sev), p) != p:
            raise DataError(f"two sets for cell {kind}-s{sev}: {sets[(kind, sev)]} and {p}")
    ckpts = [args.ckpt] + ([args.baseline] if args.baseline else [])
    # one pass: each set is loaded once and scored by the model and the baseline
    report, *baseline = robustness_accuracy(
        [load_checkpoint(c, momenta=False).build_model() for c in ckpts], sets)
    if baseline:
        try:
            report = attach_baseline(report, baseline[0])
        except ValueError as e:
            raise DataError(f"--baseline {args.baseline}: {e}") from None
    if args.csv:
        report.write_csv(args.csv)
    text = report.to_json()
    if args.json:
        with atomic_write(args.json) as fh:
            fh.write(text + "\n")
    print(text)
    return 0


def cmd_attenuate(args) -> int:
    _check_outputs(args.svg, args.json)
    clean = load_image_set(args.images)
    radii = _csv_ints(args.radii, "--radii")
    try:
        check_radii(radii, *clean.images.shape[-2:])
    except ValueError as e:
        raise ConfigError(f"--radii: {e}") from None
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
        with atomic_write(args.json) as fh:
            fh.write(doc + "\n")
    print(doc)
    return 0


def cmd_inspect(args) -> int:
    if (args.svg or args.json) and not args.layer:
        raise ConfigError("--svg and --json write one layer's heatmap and need --layer")
    _check_outputs(args.svg, args.json)
    ck = load_checkpoint(args.ckpt)
    shapes = {name: w.shape for name, w, *_ in ck.layers}
    if args.layer and args.layer not in shapes:
        raise ConfigError(f"--layer {args.layer!r}: the checkpoint's layers are {', '.join(shapes)}")
    mask = ck.mask()
    print(f"model    {ck.model_spec}")
    print(f"step     {ck.step}")
    print(f"seed     {ck.seed}")
    print(f"method   {ck.dst_config['method']}")
    rows = []
    for name, w, *_ in ck.layers:
        active = mask.active_count(name) if name in mask else w.size
        rows.append((name, "x".join(str(d) for d in w.shape), active, w.size))
    print(f"density  {sum(r[2] for r in rows) / sum(r[3] for r in rows):.6f}")
    print(f"{'layer':<16} {'shape':<16} {'active':>10} {'total':>10} density")
    for name, shape, active, total in rows:
        print(f"{name:<16} {shape:<16} {active:>10} {total:>10} {active / total:.6f}")

    if args.layer:
        shape = shapes[args.layer]
        # active weights per (output, input) pair: the active positions of a
        # conv kernel, the mask bit itself of a linear weight
        matrix = (ck.masks.get(args.layer, np.ones(shape, dtype=bool))
                  .reshape(shape[0], shape[1], -1).sum(axis=2))
        total = int(matrix.sum())
        print(f"\nlayer {args.layer}: kernel nonzero counts, total {total}")
        for value, n in enumerate(np.bincount(matrix.reshape(-1), minlength=10)):
            if n:
                print(f"  count {value}: {int(n)} kernels")
        if args.svg:
            grid_heatmap(matrix, f"{args.layer} nonzero counts", args.svg)
        if args.json:
            with atomic_write(args.json) as fh:
                json.dump({
                    "layer": args.layer,
                    "kind": "count",
                    "total": total,
                    "matrix": matrix.tolist(),
                }, fh, indent=2, sort_keys=True)
                fh.write("\n")
    return 0


def _arch_descriptor(name: str):
    lib = descriptor_library()
    if name in lib:
        return lib[name]
    if not name.startswith(("mlp:", "small_convnet:")):
        raise ConfigError(
            f"unknown arch {name!r}; provide one of {', '.join(sorted(lib))} "
            f"or a model spec string")
    try:
        return parse_model_spec(name).descriptor()
    except ValueError as e:
        raise ConfigError(str(e)) from None


def _default_images_per_epoch(arch: str) -> int:
    if "imagenet" in arch:
        return 1_281_167
    if "tiny" in arch:
        return 100_000
    return 50_000


def _flops_refusal(args, message: str) -> str:
    """A DstConfig refusal met by `cmd_flops`, named by the flag the user
    typed: a sparsity comes from --sparsity or --density, a delta_t from
    --delta-t. Other messages pass as they are."""
    field, _, rest = message.partition(" ")
    if field == "delta_t":
        return f"--delta-t {rest}"
    if field not in ("sparsity", "init_density"):
        return message
    if args.density is None:
        flag, value = "--sparsity", args.sparsity
    else:
        flag, value = "--density", args.density
    if field == "init_density":  # granet's schedule starts below the target density
        return (f"{flag} {value} sets a target density above {args.method}'s initial "
                f"density {DstConfig.init_density}; the density schedule only decays")
    if args.method == "dense":
        want = "1" if flag == "--density" else "0"
    else:
        want = "in (0, 1)"
    return f"{flag} must be {want} for {args.method}, got {value}"


def cmd_flops(args) -> int:
    desc = _arch_descriptor(args.arch)
    if args.density is not None and args.sparsity is not None:
        raise ConfigError("give either --density or --sparsity, not both")
    if args.density is not None and not 0.0 < args.density <= 1.0:
        raise ConfigError(f"--density must lie in (0, 1], got {args.density}")
    if args.method != "dense" and args.sparsity is None and args.density is None:
        raise ConfigError(f"--method {args.method} needs --sparsity or --density")
    sparsity = args.sparsity if args.sparsity is not None else (
        1.0 - args.density if args.density is not None else 0.0)
    images = args.images_per_epoch
    if images is None:
        images = _default_images_per_epoch(args.arch)
    if min(args.bs, images) < 1:
        raise ConfigError(f"--bs and --images-per-epoch must be >= 1, got {args.bs} and {images}")
    steps = args.epochs * (images // args.bs)
    if steps < 1:
        raise ConfigError(f"--epochs {args.epochs} of --images-per-epoch {images} at --bs "
                          f"{args.bs} make {steps} training steps; need at least one")
    try:
        dst = DstConfig(method=args.method, sparsity=sparsity,
                        total_steps=steps, delta_t=args.delta_t)
        alloc = DENSE if args.method == "dense" else ALLOCATORS[args.dist](desc, sparsity)
    except ValueError as e:  # DstConfig's messages open with the field at fault
        raise ConfigError(_flops_refusal(args, str(e))) from None
    report = cost_report(desc, args.method, alloc, synthetic_trajectory(dst), steps, args.bs,
                         probe=not args.no_probe)
    print(report.to_json())
    return 0


def cmd_study(args) -> int:
    seeds = _csv_ints(args.seeds, "--seeds")
    data = find_idx_dataset(args.data)
    if data is None:
        raise DataError("no IDX dataset found; run scripts/fetch_data.py first")
    try:
        result = run_study(data, args.out, epochs=args.epochs, seeds=seeds, echo=print)
    except ValueError as e:  # run_study's refusals of its arguments
        raise ConfigError(str(e)) from None
    for label in result.labels:
        print(f"{label:<10} mean robustness accuracy {result.robustness_mean(label):.4f}")
    print(f"details: {args.out}/study.json")
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
    p.add_argument("--delta-t", type=int, default=DstConfig.delta_t)
    p.add_argument("--dist", default="erk", choices=tuple(ALLOCATORS))
    p.add_argument("--images-per-epoch", type=int, default=None,
                   help="default: 50000, or 1281167/*imagenet*, 100000/*tiny*")
    p.add_argument("--no-probe", action="store_true",
                   help="exclude dense-gradient probe cost from TrFLOPs")
    p.set_defaults(fn=cmd_flops)

    p = sub.add_parser("study", help="train the default stable and score its robustness")
    p.add_argument("--data", help="dataset directory (default: $DSTFORGE_DATA or ./data)")
    p.add_argument("--out", default="runs/study", help="study output root")
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--seeds", default=",".join(map(str, DEFAULT_SEEDS)), help="training seeds")
    p.set_defaults(fn=cmd_study)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (DataError, CheckpointError, StudyError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3
    except DivergenceError as e:
        print(f"training failed: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
