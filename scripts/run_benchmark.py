#!/usr/bin/env python3
"""Base-to-new benchmark on the synthetic fixture.

Trains the standard configuration grid (zero-shot, baseline, text-to-text,
virtual classes, L1/L2 ablations) over several seeds and prints mean
base/new/H accuracies.
"""

import argparse

import numpy as np

from lasp.data import SyntheticDatasetSpec, make_synthetic_dataset
from lasp.encoders import EncoderConfig
from lasp.evaluator import evaluate_standard, harmonic_mean
from lasp.model import build_model
from lasp.prompts import load_template_bank, split_templates
from lasp.trainer import TrainConfig, train_few_shot


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    ap.add_argument("--epochs", type=int, default=150)
    ap.add_argument("--separation", type=float, default=16.0)
    ap.add_argument("--context-shift", type=float, default=0.3)
    args = ap.parse_args(argv)

    enc = EncoderConfig()
    spec = SyntheticDatasetSpec(separation=args.separation,
                                context_shift=args.context_shift)
    data = make_synthetic_dataset(spec, enc, template_source="6")
    bank = split_templates(load_template_bank("6"), 3, 0)
    new = tuple(data.new_names)

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
            model = build_model(enc, bank, seed, words="a photo of a", m=4)
            if over is not None:
                cfg = TrainConfig(epochs=args.epochs,
                                  warmup_epochs=min(5, args.epochs), lr=0.02,
                                  seed=seed, **over)
                train_few_shot(model, data.base_names,
                               data.splits["base-train"], cfg)
            rep = evaluate_standard(model, data.splits["base-test"],
                                    data.splits["new-test"],
                                    data.base_names, data.new_names,
                                    mode="zero-shot" if over is None
                                    else "learned")
            accs.append((rep.base_acc, rep.new_acc))
        b = float(np.mean([a for a, _ in accs]))
        n = float(np.mean([a for _, a in accs]))
        print(f"{label:10s} {b:7.2f} {n:7.2f} {harmonic_mean(b, n):7.2f}")


if __name__ == "__main__":
    main()
