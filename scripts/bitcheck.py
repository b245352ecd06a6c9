#!/usr/bin/env python3
"""Print one sha256 per output of lasp, to show that a change keeps every bit.

Run it on two checkouts and compare the outputs:

    PYTHONPATH=src python3 scripts/bitcheck.py > after.txt
    (cd ../parent && PYTHONPATH=src python3 scripts/bitcheck.py) > before.txt
    diff before.txt after.txt

Each line is ``<sha256>  <output>``. The outputs are:

- every file ``lasp fixture`` writes;
- ``checkpoint.bin``, ``train.log`` and ``report.kv`` of a short
  ``lasp train``, and of one with ``ln_finetune=1``;
- the frozen features of every fixture split and the anchors of its class
  names, from an untrained model built on the written fixture after both
  train runs in the same process: the text tower and its cached anchors
  are shared per encoder config, so any state a run leaks through it
  shows up as a diff;
- that model's frozen features of a split of ``RANDOM_SPLIT`` random
  images drawn at ``--seed``, encoded in 16 chunks;
- the frozen features of every fixture split again, once the
  ``ln_finetune=1`` run's checkpoint is loaded into that model: features
  are kept on each split per vision-tower config and LayerNorm state, so
  features kept from before the load would show up as a diff;
- text-tower features and input grads of random embeddings at every
  ``(B, S)`` of ``--text-batches`` x ``--text-lengths``;
- vision-tower features, pixel grads and the 10 LayerNorm-affine grads of
  random images at each of ``--vision-batches``, with the affines trained;
- the three losses of one training step and the grads of the prompt
  vectors, the shared bias and (when trained) the vision LayerNorm affines,
  for each loss kind at two step shapes: train-text (G = 3, 10 base and
  20 virtual names, frozen features of a batch of 16) and train-vision
  (G = 1, 10 names, 64 images, LayerNorm affines trained).

``--seed`` and ``--set`` go to both commands; ``--set`` makes a small run
(``--set n_base=2 --set center_steps=5`` and so on).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile

import numpy as np

from lasp.autodiff import Tensor
from lasp.cli import RunContext, main as lasp_main, resolve_config
from lasp.data import _class_word_pool
from lasp.encoders import IMAGE_SHAPE, EncoderConfig, TextEncoder, VisionEncoder
from lasp.losses import LOSS_KINDS
from lasp.model import PromptedClip
from lasp.prompts import (ClassVocabulary, init_prompts, load_template_bank,
                          split_templates)
from lasp.trainer import (FewShotDataset, TrainConfig, Trainer,
                          load_checkpoint)

TEXT_BATCHES = (1, 5, 90)
TEXT_LENGTHS = tuple(range(2, 33))
VISION_BATCHES = (1, 2, 3, 17, 64, 65)
# (label, G, virtual names, batch, ln_finetune)
STEP_SHAPES = (("train-text", 3, 20, 16, False),
               ("train-vision", 1, 0, 64, True))
RANDOM_SPLIT = 1000


def sha(data) -> str:
    if isinstance(data, np.ndarray):
        data = np.ascontiguousarray(data).tobytes()
    return hashlib.sha256(data).hexdigest()


def run_lasp(argv: list[str]):
    """Run one ``lasp`` command; its own stdout is not part of the output."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = lasp_main(argv)
    if code != 0:
        raise SystemExit(f"lasp {' '.join(argv)} exited {code}")


def file_lines(root: str, label: str, names=None):
    if names is None:
        names = sorted(os.path.relpath(os.path.join(d, f), root)
                       for d, _, files in os.walk(root) for f in files)
    for name in names:
        with open(os.path.join(root, name), "rb") as fh:
            yield sha(fh.read()), f"{label}/{name}"


def model_lines(fixture: str, ln_checkpoint: str, sets: list[str],
                seed: int):
    ctx = RunContext(resolve_config(
        None, sets + [f"manifest={os.path.join(fixture, 'manifest.json')}"],
        seed))
    model = ctx.build_model()
    for split, ds in sorted(ctx.splits.items()):
        yield sha(model.frozen_features(ds)), f"frozen-features/{split}"
    yield (sha(model.anchors(ctx.base_names + ctx.new_names)),
           "anchors/base+new")
    rng = np.random.default_rng(seed)
    split = FewShotDataset(rng.random((RANDOM_SPLIT, *IMAGE_SHAPE)),
                           np.zeros(RANDOM_SPLIT, dtype=np.int64),
                           f"random-{RANDOM_SPLIT}")
    yield sha(model.frozen_features(split)), f"frozen-features/{split.split}"
    load_checkpoint(ln_checkpoint, model)
    for split, ds in sorted(ctx.splits.items()):
        yield (sha(model.frozen_features(ds)),
               f"train-ln-loaded/frozen-features/{split}")


def text_lines(batches, lengths):
    enc = TextEncoder(EncoderConfig())
    d = enc.cfg.d_tok
    for b in batches:
        for s in lengths:
            rng = np.random.default_rng(1000 * b + s)
            x = Tensor(rng.standard_normal((b, s, d)), requires_grad=True)
            feats = enc.encode_batch(x)
            (feats.tanh() * rng.standard_normal((b, d))).sum().backward()
            yield sha(feats.data), f"text/B{b}-S{s}/features"
            yield sha(x.grad), f"text/B{b}-S{s}/input-grad"


def vision_lines(batches):
    enc = VisionEncoder(EncoderConfig())
    enc.set_ln_trainable(True)
    ln = {k: t for k, t in enc.trunk.named_params().items() if t.requires_grad}
    for b in batches:
        rng = np.random.default_rng(b)
        x = Tensor(rng.random((b, *IMAGE_SHAPE)), requires_grad=True)
        r = rng.standard_normal((b, enc.cfg.d))
        for t in ln.values():
            t.zero_grad()
        feats = enc.encode_batch(x)
        (feats.tanh() * r).sum().backward()
        yield sha(feats.data), f"vision/B{b}/features"
        yield sha(x.grad), f"vision/B{b}/pixel-grad"
        for name, t in ln.items():
            yield sha(t.grad), f"vision/B{b}/{name}-grad"


def step_lines(seed: int):
    enc = EncoderConfig()
    for label, groups, n_virtual, batch, ln in STEP_SHAPES:
        names = _class_word_pool()[:10 + n_virtual]
        for kind in LOSS_KINDS:
            prompts = init_prompts(groups, 4, enc.d_tok, enc.d, seed)
            model = PromptedClip(enc, prompts, split_templates(
                load_template_bank("6"), groups, seed))
            cfg = TrainConfig(batch_size=batch, groups=groups, ln_finetune=ln,
                              loss_kind=kind, virtual_classes=tuple(names[10:]))
            trainer = Trainer(model, ClassVocabulary(names[:10]), cfg)
            rng = np.random.default_rng(seed)
            prompts.bias.data[...] = 0.1 * rng.standard_normal(enc.d)
            x = (rng.random((batch, *IMAGE_SHAPE)) if ln
                 else rng.standard_normal((batch, enc.d)))
            losses = trainer._losses(x, rng.integers(0, 10, batch))
            losses[2].backward()
            tag = f"step/{label}/{kind}"
            for name, t in zip(("l_vl", "l_tt", "total"), losses):
                yield sha(t.data), f"{tag}/{name}"
            for name, t in trainer.params.items():
                yield sha(t.grad), f"{tag}/{name}-grad"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                    help="config override for fixture and train (repeatable)")
    ap.add_argument("--epochs", type=int, default=20,
                    help="epochs of the short train run")
    ap.add_argument("--text-batches", type=int, nargs="+",
                    default=list(TEXT_BATCHES))
    ap.add_argument("--text-lengths", type=int, nargs="+",
                    default=list(TEXT_LENGTHS))
    ap.add_argument("--vision-batches", type=int, nargs="+",
                    default=list(VISION_BATCHES))
    args = ap.parse_args(argv)
    sets = [a for kv in args.set for a in ("--set", kv)]
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        fixture = os.path.join(tmp, "fixture")
        common = ["--seed", str(args.seed)] + sets
        run_lasp(["fixture", "--out", fixture] + common)
        lines += file_lines(fixture, "fixture")
        for label, extra in (("train", []),
                             ("train-ln", ["--set", "ln_finetune=1"])):
            out = os.path.join(tmp, label)
            run_lasp(["train", "--out", out, "--set", f"epochs={args.epochs}",
                      "--set", f"warmup_epochs={min(5, args.epochs)}"]
                     + extra + common)
            lines += file_lines(out, label,
                                ["checkpoint.bin", "train.log", "report.kv"])
        lines += model_lines(fixture,
                             os.path.join(tmp, "train-ln", "checkpoint.bin"),
                             args.set, args.seed)
    lines += text_lines(args.text_batches, args.text_lengths)
    lines += vision_lines(args.vision_batches)
    lines += step_lines(args.seed)
    for digest, name in lines:
        print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
