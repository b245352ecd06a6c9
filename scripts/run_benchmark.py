#!/usr/bin/env python3
"""Base-to-new benchmark on the synthetic fixture.

Trains the standard configuration grid (zero-shot, baseline, text-to-text,
virtual classes, L1/L2 ablations) over several seeds and prints mean
base/new/H accuracies. The experiment is the CLI's default configuration,
built by ``lasp.cli.RunContext``.
"""

import argparse

import numpy as np

from lasp.cli import RunContext, resolve_config
from lasp.evaluator import harmonic_mean


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    ap.add_argument("--epochs", type=int, default=150)
    args = ap.parse_args(argv)

    ctx = RunContext(resolve_config(None, [], None))
    schedule = dict(epochs=args.epochs, warmup_epochs=min(5, args.epochs))
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
        for seed in args.seeds:
            if over is None:
                rep = ctx.evaluate(ctx.model, "zero-shot")
            else:
                model, _, _ = ctx.train(seed=seed, **schedule, **over)
                rep = ctx.evaluate(model)
            accs.append((rep.base_acc, rep.new_acc))
        b = float(np.mean([a for a, _ in accs]))
        n = float(np.mean([a for _, a in accs]))
        print(f"{label:10s} {b:7.2f} {n:7.2f} {harmonic_mean(b, n):7.2f}")


if __name__ == "__main__":
    main()
