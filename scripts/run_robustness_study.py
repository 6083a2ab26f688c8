#!/usr/bin/env python
"""Train the desk-scale model stable and collect robustness results.

Runs dense, SET (50% and 95% sparsity), and RigL (50%) over three seeds on
the IDX dataset found under --data, then scores every model on the corrupted
grid and the frequency-attenuation sweep. Idempotent: finished runs are
reused on the next invocation.
"""

import argparse
import sys

from dstforge.study import DEFAULT_SEEDS, StudyError, find_idx_dataset, run_study


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--data", default=None,
                    help="dataset directory (default: $DSTFORGE_DATA or ./data)")
    ap.add_argument("--out", default="runs/study", help="study output root")
    ap.add_argument("--epochs", type=int, default=20)
    ap.add_argument("--seeds", default=",".join(str(s) for s in DEFAULT_SEEDS))
    args = ap.parse_args()

    try:
        seeds = tuple(int(s) for s in args.seeds.split(","))
    except ValueError:
        print(f"--seeds must be comma-separated integers, got {args.seeds!r}", file=sys.stderr)
        return 2
    if args.epochs < 1:
        print(f"--epochs must be at least 1, got {args.epochs}", file=sys.stderr)
        return 2
    data = find_idx_dataset(args.data)
    if data is None:
        print("no IDX dataset found; run scripts/fetch_data.py first", file=sys.stderr)
        return 3
    try:
        result = run_study(data, args.out, epochs=args.epochs, seeds=seeds, echo=print)
    except StudyError as e:  # a run directory or grid that belongs to other settings or data
        print(f"study error: {e}", file=sys.stderr)
        return 3
    for label in result.labels:
        print(f"{label:<10} mean robustness accuracy "
              f"{result.robustness_mean(label):.4f}")
    print(f"details: {args.out}/study.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
