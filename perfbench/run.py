"""dstforge benchmark: closed-loop DST training and robustness workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds its inputs from --seed (the synthetic blob task at 1x28x28 and
3x32x32), sets up, runs one untimed warm-up round, then repeats whole rounds
of the workload's operations for --seconds, checks the outputs against
independent computations, and prints one JSON object as the last line of
standard output: `correct`, `attempted`, `failed` and `metrics`. With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json; with
--trace 1 the workload runs --seconds untraced and then --seconds with spans
around dstforge's public functions, and the per-layer metrics are reported.
The first line of standard output records the environment; the line before
the result gives the reference step time that scales `items_per_s` and
`setup_s` (see reference.py) and the unscaled figures.
"""

from __future__ import annotations

import os
import sys

# BLAS threads are pinned before numpy loads; one thread keeps a run's
# figures independent of whatever else the machine is doing.
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "DSTFORGE_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import json
import platform
import resource
import shutil
import statistics
import time

from reference import NOMINAL_S, Reference

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def with_reference(fn, ref):
    """(fn's result, its wall time, the reference step time measured right
    after it for about 5% of that time)."""
    t0 = time.perf_counter()
    out = fn()
    dt = time.perf_counter() - t0
    return out, dt, ref.seconds_per_step(max(10, int(0.05 * dt / NOMINAL_S)))


def loop(wl, ref, seconds: float) -> tuple[list[list], list[float]]:
    """Whole rounds until `seconds` of wall time have passed (at least one),
    each followed by a slice of reference steps."""
    rounds, ref_s = [], []
    t0 = time.perf_counter()
    while not rounds or time.perf_counter() - t0 < seconds:
        ops, _, r = with_reference(wl.round, ref)
        rounds.append(ops)
        ref_s.append(r)
    return rounds, ref_s


def rate(ops, tag=None) -> float:
    ops = [o for o in ops if o.counted and o.error is None and (tag is None or o.tag == tag)]
    secs = sum(o.seconds for o in ops)
    return sum(o.items for o in ops) / secs if secs else 0.0


def flat(rounds):
    return [o for r in rounds for o in r]


def end_to_end(setup_times, setup_ref_s, rounds, ref_s, peak_rss_mb) -> dict:
    """Times and rates scaled to the reference machine speed (reference.py)."""
    return {
        "setup_s": statistics.median(setup_times) * NOMINAL_S / statistics.median(setup_ref_s),
        "items_per_s": rate(flat(rounds)) * statistics.median(ref_s) / NOMINAL_S,
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(wl, tracer, traced, untraced, ref_s) -> dict:
    from dstforge.corruption import KINDS
    from dstforge.models import build_model, parse_model_spec
    import numpy as np

    t = tracer
    out = {}
    specs = {}  # the descriptor behind metrics.inference_flops, by layer name
    if hasattr(wl, "model"):
        desc = build_model(parse_model_spec(wl.model), np.random.default_rng(0)).descriptor()
        specs = {s.name: s for s in desc.layers}
    for layer in ("conv1", "conv2"):
        out[f"tensor.conv2d_forward_ms.{layer}"] = t.median_ms("tensor.conv2d_forward", layer)
        pool_tag = f"c{specs[layer].c_out}" if layer in specs else None  # pools are tagged by channels
        out[f"tensor.maxpool2x2_ms.{layer}"] = t.median_ms("tensor.maxpool2x2", pool_tag) if pool_tag else 0.0
    for layer in ("fc1", "fc2", "fc3"):
        out[f"tensor.linear_forward_ms.{layer}"] = t.median_ms("tensor.linear_forward", layer)
    out["tensor.backward_ms"] = t.median_ms("tensor.backward")
    for layer in ("conv1", "conv2", "fc1", "fc2", "fc3"):
        name = "tensor.conv2d_forward" if layer.startswith("conv") else "tensor.linear_forward"
        g = [2.0 * specs[layer].macs() * s[5] / (s[3] - s[2]) / 1e9 for s in t.select(name, layer)]
        out[f"tensor.gflops.{layer}"] = statistics.median(g) if g else 0.0
    out["optim.sgd_step_ms"] = t.median_ms("optim.sgd_step")
    out["sparsity.apply_mask_ms"] = t.median_ms("sparsity.apply_mask")
    out["models.forward_ms"] = t.median_ms("models.forward")

    n_rounds = len(traced)
    topo = t.select("schedulers.topology_update")
    for m in ("set", "rigl", "mest_g", "granet_g"):
        out[f"schedulers.topology_update_ms.{m}"] = t.median_ms("schedulers.topology_update", m)
    out["schedulers.topology_events"] = len(topo) / n_rounds
    out["schedulers.weights_regrown"] = sum(s[5] for s in topo) / n_rounds

    # dense FLOPs the kernels executed: 2 per MAC forward, twice that backward
    run_of = t.ancestors_named("train.run_train")
    executed: dict[str, float] = {}
    for i, s in enumerate(t.spans):
        if s[0] in ("tensor.linear_forward", "tensor.conv2d_forward") and run_of[i] >= 0:
            run_tag = t.spans[run_of[i]][1]
            executed[run_tag] = executed.get(run_tag, 0.0) + 6.0 * specs[s[1]].macs() * s[5]
    runs = {}
    for s in t.select("train.run_train"):
        runs[s[1]] = runs.get(s[1], 0) + 1
    for m in ("dense", "set", "rigl", "mest_g", "granet_g"):
        cost = [o.cost_flops for o in flat(traced) if o.tag == m]
        ex = executed.get(m, 0.0) / runs[m] if runs.get(m) else 0.0
        acc = statistics.fmean(cost) if cost else 0.0
        out[f"train.samples_per_s.{m}"] = rate(flat(untraced), m)
        out[f"train.cost_gflop.{m}"] = acc / 1e9
        out[f"train.executed_gflop.{m}"] = ex / 1e9
        out[f"train.useful_flop_ratio.{m}"] = acc / ex if ex else 0.0
    out["train.test_accuracy_ms"] = t.median_ms("train.test_accuracy")

    for kind in ("mlp", "small_convnet"):
        out[f"models.predict_us_per_image.{kind}"] = t.median_us_per_item("models.predict", f"{kind}/dense")
        out[f"metrics.accuracy_us_per_image.{kind}"] = t.median_us_per_item("metrics.accuracy", kind)
    out["models.predict_sparse_us_per_image.mlp"] = t.median_us_per_item("models.predict", "mlp/sparse")
    for kind in KINDS:
        out[f"corruption.us_per_image.{kind}"] = t.median_us_per_item("corruption.corrupt_images", kind)
    out["spectral.attenuate_us_per_image"] = t.median_us_per_item("spectral.attenuate_images")
    out["spectral.ra_curve_ms"] = t.median_ms("spectral.ra_curve")

    nested = {i for i, s in enumerate(t.spans) if s[0] == "data.load_image_set"}
    out["data.load_ms"] = t.median_ms("data.load", where=lambda s: s[4] not in nested)
    out["data.save_image_set_ms"] = t.median_ms("data.save_image_set")
    out["data.load_image_set_ms"] = t.median_ms("data.load_image_set")
    out["checkpoint.save_ms"] = t.median_ms("checkpoint.save")
    out["checkpoint.load_ms"] = t.median_ms("checkpoint.load")
    sizes = [s[5] for s in t.select("checkpoint.save")]
    out["checkpoint.bytes"] = statistics.median(sizes) if sizes else 0
    out["study.ensure_corrupted_set_ms"] = t.median_ms("study.ensure_corrupted_set")

    u = flat(untraced)
    out["cli.corrupt_images_per_s"] = rate(u, "corrupt")
    out["cli.evaluate_images_per_s"] = rate(u, "evaluate")
    out["cli.attenuate_images_per_s"] = rate(u, "attenuate")
    study = [o.seconds for o in u if o.tag == "study"]
    out["study.run_study_s"] = statistics.median(study) if study else 0.0

    plain = [sum(o.seconds for o in r) for r in untraced]
    with_spans = [sum(o.seconds for o in r) for r in traced]
    out["trace.overhead_pct"] = 100.0 * (statistics.median(with_spans) / statistics.median(plain) - 1.0)
    out["trace.wrapper_us_per_span"] = t.wrapper_cost_us()
    out["trace.spans_per_round"] = len(t.spans) / n_rounds
    out["machine.reference_step_ms"] = statistics.median(ref_s) * 1e3
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as e:
        return fail(f"cannot read BENCHMARK.json: {e}")
    if not os.path.isfile(os.path.join(SRC, "dstforge", "__init__.py")):
        return fail(f"no dstforge sources under {SRC}")
    sys.path.insert(0, SRC)
    import dstforge

    if os.path.dirname(os.path.abspath(dstforge.__file__)) != os.path.join(SRC, "dstforge"):
        return fail(f"imported dstforge from {dstforge.__file__}, not from {SRC}")

    import selfcheck
    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}")
    print(json.dumps({"environment": environment(args.seed)}), flush=True)
    errors = selfcheck.run()

    work = os.path.join(WORK, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    wl = workloads.WORKLOADS[args.workload](args.seed)
    ref = Reference()
    setup_times, setup_ref_s = [], []
    for i in range(wl.setup_reps):
        _, dt, r = with_reference(lambda: wl.setup(os.path.join(work, f"setup{i}")), ref)
        setup_times.append(dt)
        setup_ref_s.append(r)

    ops = list(wl.round())  # warm-up: untimed, but its operations count as attempted
    rounds, ref_s = loop(wl, ref, args.seconds)
    tracer, traced = Tracer(), []
    if args.trace:
        tracer.install()
        try:
            traced, _ = loop(wl, ref, args.seconds)
        finally:
            tracer.uninstall()
        tracer.dump(os.path.join(work, "trace.jsonl"))
    ops += flat(rounds + traced)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # before the checks
    errors += wl.check()

    attempted = len(ops)
    failed = sum(o.error is not None for o in ops)
    for msg in dict.fromkeys(o.error for o in ops if o.error is not None):
        print(f"perfbench: failed operation: {msg}", file=sys.stderr)
    for e in errors:
        print(f"perfbench: CHECK FAILED: {e}", file=sys.stderr)

    if args.trace:
        values = per_layer(wl, tracer, traced, rounds, ref_s)
        wanted = spec["per_layer"]
    else:
        values = end_to_end(setup_times, setup_ref_s, rounds, ref_s, peak_rss_mb)
        wanted = spec["end_to_end"]
    if set(values) != {m["name"] for m in wanted}:
        return fail(f"metric names {sorted(set(values) ^ {m['name'] for m in wanted})} "
                    f"differ between the benchmark and BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"machine": {"reference_step_ms": statistics.median(ref_s) * 1e3,
                                  "unscaled_items_per_s": rate(flat(rounds)),
                                  "unscaled_setup_s": statistics.median(setup_times)}}))
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
