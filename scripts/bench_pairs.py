#!/usr/bin/env python
"""Alternating parent/change runs of one benchmark workload, summarised.

    python scripts/bench_pairs.py PARENT_CHECKOUT CHANGE_CHECKOUT \
        --workload W --pairs N --seconds S --seed S0 [--claim METRIC]

Pair i runs each checkout's own `perfbench/run.py --trace 0` at seed S0+i,
the parent first on even i and the change first on odd i, so drift in the
machine's speed falls on both sides. It reads the result from the last line
of each run's standard output, and the `machine` object from the line before
it, and prints one line per run: its `correct` and `failed`, its end-to-end
metrics, and the machine's `reference_step_ms` and `unscaled_items_per_s`.
The scaled metrics divide by the reference step timed in the same process,
so these two show whether a move in them came from the code or from the
reference step. It then prints each side's medians of the two machine
figures, which no verdict reads, and one line per end-to-end metric of the
change checkout's BENCHMARK.json: the parent's and the change's medians,
the parent's quartiles, in how many pairs the change did better, in the
direction of the metric's `better` (a tie counts for neither side), and a
verdict read against the metric's `bound`, the share of the parent's median
by which it may worsen:

- `worse`: the change's median is worse than the parent's by more than the
  bound;
- `unresolved`: otherwise, the parent's own q3 - q1 is wider than the bound,
  so the runs cannot show the change is within it, unless every run of the
  change beat every run of the parent;
- `no worse`: neither of the above.

With `--claim METRIC` it then prints whether the change shows a gain in that
end-to-end metric: the change did better in at least nine tenths of the
complete pairs, and its median is better than the parent's by more than the
parent's quartile spread (q3 - q1).

It exits 1 if any run is not `correct`, has a failed operation or prints no
result, if any metric is `worse`, or if a claimed gain does not hold, and 0
otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


MACHINE = ("reference_step_ms", "unscaled_items_per_s")


def _json_object(line: str) -> dict | None:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError:
        return None
    return obj if isinstance(obj, dict) else None


def parse_output(stdout: str) -> tuple[dict | None, dict]:
    """The result object on the last line of a run's standard output, or None,
    and the `MACHINE` figures of the `machine` object on the line before it
    (those it holds)."""
    lines = stdout.strip().splitlines()
    result = _json_object(lines[-1]) if lines else None
    if result is not None and not isinstance(result.get("metrics"), dict):
        result = None
    before = _json_object(lines[-2]) if len(lines) > 1 else None
    machine = before.get("machine") if before else None
    if not isinstance(machine, dict):
        return result, {}
    return result, {k: machine[k] for k in MACHINE if isinstance(machine.get(k), (int, float))}


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> tuple[dict | None, dict]:
    """`parse_output` of one benchmark run; no result if the run failed."""
    proc = subprocess.run(
        [sys.executable, os.path.join(checkout, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True)
    result, machine = parse_output(proc.stdout)
    if proc.returncode != 0 or result is None:
        sys.stderr.write(f"{checkout} seed {seed}: no result (exit {proc.returncode})\n"
                         f"{proc.stderr[-2000:]}")
        return None, machine
    return result, machine


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def claim_holds(better: str, parent: list[float], change: list[float], wins: int) -> bool:
    """A gain, `better` being "higher" or "lower": the change won at least
    nine tenths of the pairs, and its median beats the parent's by more than
    the parent's q3 - q1."""
    if not parent:
        return False
    q1, q3 = quartiles(parent)
    gap = statistics.median(change) - statistics.median(parent)
    if better != "higher":
        gap = -gap
    return 10 * wins >= 9 * len(parent) and gap > q3 - q1


def verdict(better: str, bound: float, parent: list[float], change: list[float]) -> str:
    """`worse`, `unresolved` or `no worse` for one end-to-end metric (see the
    module docstring); `bound` is a share of the parent's median."""
    p_med = statistics.median(parent)
    allowed = bound * abs(p_med)
    worse_by = statistics.median(change) - p_med
    if better == "higher":
        worse_by = -worse_by
    if worse_by > allowed:
        return "worse"
    q1, q3 = quartiles(parent)
    if better == "higher":
        all_beat = min(change) > max(parent)
    else:
        all_beat = max(change) < min(parent)
    if q3 - q1 > allowed and not all_beat:
        return "unresolved"
    return "no worse"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", metavar="PARENT_CHECKOUT")
    ap.add_argument("change", metavar="CHANGE_CHECKOUT")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--claim", metavar="METRIC",
                    help="end-to-end metric in which the change claims a gain")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]
    better = {m["name"]: m["better"] for m in metrics}
    if args.claim is not None and args.claim not in better:
        ap.error(f"--claim {args.claim}: not an end-to-end metric of {', '.join(better)}")

    sides = {"parent": args.parent, "change": args.change}
    values = {side: {m["name"]: [] for m in metrics} for side in sides}
    wins = {m["name"]: 0 for m in metrics}
    machine_values = {side: {k: [] for k in MACHINE} for side in sides}
    ok = True
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {}
        for side in order:
            result, machine = run_once(sides[side], args.workload, seed, args.seconds)
            if result is None:
                ok = False
                print(f"pair {i} seed {seed} {side:<6} no result", flush=True)
                continue
            ok &= result.get("correct") is True and result.get("failed") == 0
            got = {m["name"]: result["metrics"][m["name"]]["value"] for m in metrics}
            for k, v in machine.items():
                machine_values[side][k].append(v)
            print(f"pair {i} seed {seed} {side:<6} correct {result.get('correct')} "
                  f"failed {result.get('failed')} "
                  + " ".join(f"{name} {v:.6g}" for name, v in (got | machine).items()), flush=True)
            pair[side] = got
        if len(pair) < 2:
            continue
        for m in metrics:
            name = m["name"]
            p, c = pair["parent"][name], pair["change"][name]
            values["parent"][name].append(p)
            values["change"][name].append(c)
            wins[name] += c > p if m["better"] == "higher" else c < p

    print(f"{args.workload}: {len(values['parent'][metrics[0]['name']])} complete pairs")
    for side in sides:
        print(f"machine, {side} median (not judged): " + ", ".join(
            f"{k} {statistics.median(v):.6g}" for k, v in machine_values[side].items() if v))
    for m in metrics:
        name = m["name"]
        p, c = values["parent"][name], values["change"][name]
        if not p:
            continue
        q1, q3 = quartiles(p)
        v = verdict(m["better"], m["bound"], p, c)
        print(f"{name} ({m['unit']}, {m['better']} is better): parent median {statistics.median(p):.6g} "
              f"[q1 {q1:.6g}, q3 {q3:.6g}], change median {statistics.median(c):.6g}, "
              f"change better in {wins[name]}/{len(p)} pairs, bound {m['bound']:g}: {v}")
        ok &= v != "worse"
    if args.claim is not None:
        holds = claim_holds(better[args.claim], values["parent"][args.claim],
                            values["change"][args.claim], wins[args.claim])
        print(f"claim {args.claim}: {'holds' if holds else 'does not hold'}")
        ok &= holds
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
