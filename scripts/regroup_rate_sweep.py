#!/usr/bin/env python3
"""Sweep the regroup fraction and track how the hidden pool grows.

Trains one generative model per (seed, rho) on bars-and-stripes data and
prints the pool size per epoch, averaged over seeds. rho = 0 is the
no-regrouping baseline. Each run is scripts/rp_speedup.py's `run`: the bars
protocol of acceptance criteria 6 and 7, without the exact evaluations.

    python scripts/regroup_rate_sweep.py --rhos 0 0.3 0.5 0.7 0.8 --epochs 20
"""

import argparse
import sys

import numpy as np

from rp_speedup import add_protocol_flags, protocol, run


def swept_fraction(text):
    """A --rhos value: a regroup fraction in [0, 0.9], 0 meaning no regrouping."""
    rho = float(text)
    if not 0 <= rho <= 0.9:
        raise argparse.ArgumentTypeError(f"must lie in [0, 0.9], got {text}")
    return rho


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rhos", type=swept_fraction, nargs="+",
                        default=[0.0, 0.3, 0.5, 0.7, 0.8])
    add_protocol_flags(parser)
    parser.add_argument("--epochs", type=int, default=20)
    parser.add_argument("--csv", help="write the averaged curves here")
    args = parser.parse_args(argv)

    curves = {}
    for rho in args.rhos:
        runs = np.array([run(seed, rho, args.epochs, **protocol(args)).sizes
                         for seed in range(args.seeds)])
        curves[rho] = runs.mean(axis=0)
        print(f"rho={rho:.1f}: final l = {curves[rho][-1]:.1f} "
              f"(mean over {args.seeds} seeds)")

    header = "epoch," + ",".join(f"rho={rho:.1f}" for rho in args.rhos)
    lines = [header]
    for e in range(args.epochs):
        lines.append(",".join([str(e + 1)] +
                              [f"{curves[rho][e]:.2f}" for rho in args.rhos]))
    if args.csv:
        with open(args.csv, "w") as f:
            f.write("\n".join(lines) + "\n")
        print(f"wrote {args.csv}")
    else:
        print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
