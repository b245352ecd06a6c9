#!/usr/bin/env python3
"""Base-to-new benchmark on the synthetic fixture.

Trains the standard configuration grid (zero-shot, baseline, text-to-text,
virtual classes, L1/L2 ablations) over several seeds and prints mean
base/new/H accuracies. The experiment is the CLI's default configuration,
built by ``lasp.cli.RunContext``.
"""

import argparse
import sys

import numpy as np

from lasp.cli import EXIT_OK, RunContext, resolve_config, run_reporting_errors
from lasp.evaluator import harmonic_mean
from lasp.trainer import TrainConfig


def run_grid(seeds: list[int], epochs: int) -> int:
    # the seeds and the schedule are checked by TrainConfig, so a bad one
    # fails before the fixture is built
    for seed in seeds:
        TrainConfig(seed=seed)
    ctx = RunContext(resolve_config(None, [f"epochs={epochs}",
                                           f"warmup_epochs={min(5, epochs)}"],
                                    None))
    new = tuple(ctx.new_names)

    # None: the untrained model scored by its hand-crafted templates
    grid = [("zero-shot", None),
            ("baseline", dict(alpha_tt=0.0)),
            ("lasp", {}),
            ("lasp-v", dict(virtual_classes=new)),
            ("l1", dict(loss_kind="l1", virtual_classes=new)),
            ("l2", dict(loss_kind="l2", virtual_classes=new))]

    print(f"{'config':10s} {'base':>7} {'new':>7} {'H':>7}")
    for label, over in grid:
        accs = []
        for seed in seeds:
            if over is None:
                rep = ctx.evaluate(ctx.model, "zero-shot")
            else:
                model, _, _ = ctx.train(seed=seed, **over)
                rep = ctx.evaluate(model)
            accs.append((rep.base_acc, rep.new_acc))
        b = float(np.mean([a for a, _ in accs]))
        n = float(np.mean([a for _, a in accs]))
        print(f"{label:10s} {b:7.2f} {n:7.2f} {harmonic_mean(b, n):7.2f}")
    return EXIT_OK


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    ap.add_argument("--epochs", type=int, default=150)
    args = ap.parse_args(argv)
    return run_reporting_errors(run_grid, args.seeds, args.epochs)


if __name__ == "__main__":
    sys.exit(main())
