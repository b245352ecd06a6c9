import time

import numpy as np
import pytest

from lasp.cli import RunContext, resolve_config
from lasp.encoders import EncoderConfig
from lasp.model import PromptedClip


@pytest.fixture
def small_enc():
    """Narrow encoder config for fast unit tests."""
    return EncoderConfig(d_tok=8, d=8, n_layers=1, n_heads=2, max_len=16)


class AcceptanceBench:
    """Shared trained-model cache for the directional acceptance criteria.

    The standard experiment is the CLI's default configuration, built by
    ``RunContext``. The fixture and every trained model are deterministic,
    so each (configuration, seed) pair is trained once and reused across
    criteria.
    """

    SEEDS = (0, 1, 2)

    def __init__(self):
        t0 = time.monotonic()
        self.ctx = RunContext(resolve_config(None, [], None))
        self.base = self.ctx.base_names
        self.new = self.ctx.new_names
        self.distractors = self.ctx.distractor_names()
        self.dataset_time = time.monotonic() - t0
        self._models = {}

    def configs(self):
        return {
            "baseline": dict(alpha_tt=0.0),
            "lasp": {},
            "laspv": dict(virtual_classes=tuple(self.new)),
            "l1": dict(loss_kind="l1", virtual_classes=tuple(self.new)),
            "l2": dict(loss_kind="l2", virtual_classes=tuple(self.new)),
            "laspv+distract": dict(virtual_classes=tuple(self.new)
                                   + tuple(self.distractors)),
        }

    def model(self, label: str, seed: int) -> PromptedClip:
        key = (label, seed)
        if key not in self._models:
            model, _, _ = self.ctx.train(seed=seed, **self.configs()[label])
            self._models[key] = model
        return self._models[key]

    def mean_accs(self, label: str):
        accs = []
        for seed in self.SEEDS:
            rep = self.ctx.evaluate(self.model(label, seed))
            accs.append((rep.base_acc, rep.new_acc))
        return (float(np.mean([a for a, _ in accs])),
                float(np.mean([n for _, n in accs])))


@pytest.fixture(scope="session")
def bench():
    return AcceptanceBench()
