#!/usr/bin/env python3
"""Compare convergence speed with and without random-permutation training.

Runs matched pairs (regroup off vs fixed-fraction regrouping) across seeds
on bars-and-stripes data, measures the first epoch at which the exact test
log-likelihood crosses a threshold, and reports the per-arm medians.

`run` is the one runner of this bars protocol: acceptance criteria 6 and 7
and scripts/regroup_rate_sweep.py call it as well.

    python scripts/rp_speedup.py --seeds 5 --epochs 50 --threshold -7
"""

import argparse
import sys
from typing import NamedTuple

import numpy as np

from irbm.datasets import synth_bars_and_stripes
from irbm.evaluation import exact_loglik
from irbm.model import zero_model
from irbm.training import TrainConfig, Trainer

# the settings of `run` that both experiment scripts expose as flags
PROTOCOL = ("side", "n_train", "minibatch", "lr", "cd_steps", "l1", "beta")


class BarsRun(NamedTuple):
    sizes: list                    # pool size l after each epoch
    init: float | None = None      # exact test log-likelihood before training
    final: float | None = None     # ... and after the last epoch
    crossing: int | None = None    # first epoch above the threshold


def run(seed, rho, epochs, *, threshold=None, n_test=200, side=4, n_train=300,
        minibatch=100, lr=0.05, cd_steps=3, l1=1e-3, beta=1.05) -> BarsRun:
    """Train a generative iRBM with ADAGRAD on bars and stripes; rho = 0 is
    the no-regroup baseline. With a threshold, the exact test log-likelihood
    is evaluated before training, after each epoch until it crosses, and
    after the last epoch. Evaluation draws no random numbers, so the
    trajectory is the same with or without it."""
    train = synth_bars_and_stripes(side, n_train, seed=seed)
    X = train.X.astype(np.float64)
    config = TrainConfig(
        objective="generative", lr_mode="adagrad", global_lr=lr,
        cd_steps=cd_steps, minibatch_size=minibatch, l1_weight=l1,
        regroup_mode="off" if rho == 0 else "fixed", regroup_rho=rho,
        seed=seed)
    trainer = Trainer(zero_model(D=side ** 2, beta=beta), config,
                      n_train=train.n)
    if threshold is not None:
        Xt = synth_bars_and_stripes(side, n_test, seed=seed + 1000).X.astype(np.float64)

        def loglik():
            return exact_loglik(trainer.params, Xt, cap=side ** 2)

        init = loglik()
    sizes = []
    crossing = None
    for epoch in range(epochs):
        trainer.run_epoch(X)
        sizes.append(trainer.params.l)
        if threshold is not None and crossing is None and loglik() > threshold:
            crossing = epoch + 1
    if threshold is None:
        return BarsRun(sizes)
    return BarsRun(sizes, init, loglik(), crossing)


def epochs_to_cross(crossings, epochs):
    """Epochs to the threshold per run, a run that never crossed counting
    as epochs + 1, and their median."""
    counts = [epochs + 1 if c is None else c for c in crossings]
    return counts, float(np.median(counts))


def add_protocol_flags(parser):
    """--seeds and one flag per protocol setting, defaulting to run's."""
    parser.add_argument("--seeds", type=int, default=5)
    for name in PROTOCOL:
        default = run.__kwdefaults__[name]
        parser.add_argument("--" + name.replace("_", "-"), type=type(default),
                            default=default)


def protocol(args):
    """The protocol settings parsed by add_protocol_flags, as run keywords."""
    return {name: getattr(args, name) for name in PROTOCOL}


def regroup_fraction(text):
    rho = float(text)
    if not 0 < rho <= 0.9:
        raise argparse.ArgumentTypeError(f"must lie in (0, 0.9], got {text}")
    return rho


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    add_protocol_flags(parser)
    parser.add_argument("--epochs", type=int, default=50)
    parser.add_argument("--threshold", type=float, default=-7.0)
    parser.add_argument("--rho", type=regroup_fraction, default=0.7)
    parser.add_argument("--n-test", type=int, default=200)
    args = parser.parse_args(argv)

    crossings = {0.0: [], args.rho: []}
    for seed in range(args.seeds):
        for rho in crossings:
            result = run(seed, rho, args.epochs, threshold=args.threshold,
                         n_test=args.n_test, **protocol(args))
            crossings[rho].append(result.crossing)
            label = "off" if rho == 0 else f"rho={args.rho}"
            text = result.crossing or f">{args.epochs}"
            print(f"seed {seed} {label:8s}: crossed at {text}, "
                  f"final loglik {result.final:.2f}, l={result.sizes[-1]}")
    _, med_off = epochs_to_cross(crossings[0.0], args.epochs)
    _, med_rp = epochs_to_cross(crossings[args.rho], args.epochs)
    print(f"\nmedian epochs to {args.threshold} nats: "
          f"off {med_off:.1f}, rp {med_rp:.1f}")
    if med_rp < med_off:
        print("random-permutation training converged faster")
    elif med_rp == med_off:
        print("both arms converged equally fast")
    else:
        print("inverted at this scale: the baseline converged faster")
    return 0


if __name__ == "__main__":
    sys.exit(main())
