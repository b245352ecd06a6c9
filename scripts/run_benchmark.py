#!/usr/bin/env python3
"""Base-to-new benchmark on the synthetic fixture.

Scores the untrained model zero-shot, trains the standard grid of
variants (baseline, text-to-text, virtual classes, L1/L2 ablations) over
several seeds and prints three blocks: mean base/new/H accuracies, one row
per variant and seed, and the new-class margins of the means that
acceptance criteria 7 and 10 compare. The experiment is the CLI's default
configuration and ``RunContext.variants()``, both from ``lasp.cli``.
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
    grid = ctx.variants()
    del grid["lasp-v+distractors"]

    print(f"{'config':10s} {'base':>7} {'new':>7} {'H':>7}")
    # the untrained model scored by its hand-crafted templates: no seed
    # reaches it, so it is scored once
    rep = ctx.evaluate(ctx.build_model(), "zero-shot")
    print(f"{'zero-shot':10s} {rep.base_acc:7.2f} {rep.new_acc:7.2f} "
          f"{rep.h:7.2f}")
    runs, new = {}, {}
    for label, over in grid.items():
        runs[label] = [ctx.evaluate(ctx.train(seed=seed, **over)[0])
                       for seed in seeds]
        b = float(np.mean([r.base_acc for r in runs[label]]))
        new[label] = float(np.mean([r.new_acc for r in runs[label]]))
        print(f"{label:10s} {b:7.2f} {new[label]:7.2f} "
              f"{harmonic_mean(b, new[label]):7.2f}")

    print(f"\n{'config':10s} {'seed':>4} {'base':>7} {'new':>7} {'H':>7}")
    for label, reps in runs.items():
        for seed, r in zip(seeds, reps):
            print(f"{label:10s} {seed:4d} {r.base_acc:7.2f} {r.new_acc:7.2f} "
                  f"{r.h:7.2f}")

    print(f"\n{'new-class margin':22s} {'mean':>7}  criterion")
    for name, margin, criterion in [
            ("lasp - baseline", new["lasp"] - new["baseline"], 7),
            ("lasp-v - lasp", new["lasp-v"] - new["lasp"], 7),
            ("lasp-v - max(l1, l2)",
             new["lasp-v"] - max(new["l1"], new["l2"]), 10)]:
        print(f"{name:22s} {margin:+7.2f}  {criterion}")
    return EXIT_OK


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    ap.add_argument("--epochs", type=int, default=150)
    args = ap.parse_args(argv)
    return run_reporting_errors(run_grid, args.seeds, args.epochs)


if __name__ == "__main__":
    sys.exit(main())
