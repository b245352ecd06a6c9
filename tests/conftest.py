import numpy as np
import pytest

from lasp.encoders import EncoderConfig
from lasp.model import PromptedClip, build_model
from lasp.prompts import load_template_bank, split_templates
from lasp.trainer import TrainConfig, train_few_shot


@pytest.fixture
def small_enc():
    """Narrow encoder config for fast unit tests."""
    return EncoderConfig(d_tok=8, d=8, n_layers=1, n_heads=2, max_len=16)


@pytest.fixture
def small_model(small_enc):
    bank = split_templates(load_template_bank("6"), 2, 0)
    return build_model(small_enc, bank, 0, words=None, m=2)


class AcceptanceBench:
    """Shared trained-model cache for the directional acceptance criteria.

    The fixture dataset and every trained model are deterministic, so each
    (configuration, seed) pair is trained once and reused across criteria.
    """

    SEEDS = (0, 1, 2)

    def __init__(self):
        from lasp.data import (SyntheticDatasetSpec, _class_word_pool,
                               make_synthetic_dataset)
        import time
        t0 = time.monotonic()
        self.enc = EncoderConfig()
        spec = SyntheticDatasetSpec(separation=16.0, context_shift=0.3)
        self.data = make_synthetic_dataset(spec, self.enc, template_source="6")
        self.base = list(self.data.base_names)
        self.new = list(self.data.new_names)
        self.bank = split_templates(load_template_bank("6"), 3, 0)
        pool = _class_word_pool()
        order = np.random.default_rng(0).permutation(len(pool))
        picked = [pool[int(i)] for i in order]
        self.distractors = picked[20:30]
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
            model = build_model(self.enc, self.bank, seed,
                                words="a photo of a", m=4)
            cfg = TrainConfig(epochs=150, warmup_epochs=5, lr=0.02, seed=seed,
                              **self.configs()[label])
            train_few_shot(model, self.base, self.data.splits["base-train"],
                           cfg)
            self._models[key] = model
        return self._models[key]

    def mean_accs(self, label: str):
        from lasp.evaluator import evaluate_standard
        accs = []
        for seed in self.SEEDS:
            rep = evaluate_standard(self.model(label, seed),
                                    self.data.splits["base-test"],
                                    self.data.splits["new-test"],
                                    self.base, self.new)
            accs.append((rep.base_acc, rep.new_acc))
        return (float(np.mean([a for a, _ in accs])),
                float(np.mean([n for _, n in accs])))


@pytest.fixture(scope="session")
def bench():
    return AcceptanceBench()
