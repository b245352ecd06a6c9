"""Ties the frozen dual encoder to the learnable prompt state."""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, concat, no_grad, stack
from .encoders import EncoderConfig, TextEncoder, VisionEncoder
from .errors import ConfigError
from .losses import apply_bias_correction
from .prompts import (PromptSet, TemplateBank, assemble_learnable_prompt,
                      init_prompts, init_prompts_from_words, render_template)
from .tokenizer import Tokenizer


class PromptedClip:
    """Synthetic-pretrained dual encoder plus a learnable prompt set."""

    def __init__(self, enc_cfg: EncoderConfig, prompt_set: PromptSet,
                 bank: TemplateBank):
        self.cfg = enc_cfg
        self.tokenizer = Tokenizer(max_len=enc_cfg.max_len)
        self.text_encoder = TextEncoder(enc_cfg)
        self.vision_encoder = VisionEncoder(enc_cfg)
        self.prompt_set = prompt_set
        self.bank = bank
        self._anchor_cache: dict[tuple[str, ...], np.ndarray] = {}

    @property
    def tau(self) -> float:
        return self.cfg.tau

    # -- text side ------------------------------------------------------------

    def _encode_sequences(self, seqs: list[Tensor]) -> Tensor:
        """Encode variable-length sequences, batching equal lengths."""
        buckets: dict[int, list[int]] = {}
        for i, s in enumerate(seqs):
            buckets.setdefault(s.shape[0], []).append(i)
        outs = [self.text_encoder.encode_batch(stack([seqs[i] for i in idxs]))
                for idxs in buckets.values()]
        order = np.concatenate(list(buckets.values()))
        # one gather puts the bucket-ordered rows back in input order
        return concat(outs, axis=0)[np.argsort(order)]

    def anchors(self, class_names: list[str]) -> np.ndarray:
        """Frozen hand-crafted features, shape (L, C, d); cached per class set."""
        key = tuple(class_names)
        cached = self._anchor_cache.get(key)
        if cached is not None:
            return cached
        tok = self.tokenizer
        with no_grad():
            seqs = []
            for template in self.bank.templates:
                for name in class_names:
                    ids = tok.tokenize(render_template(template, name))
                    seqs.append(Tensor(self.text_encoder.embed_ids(ids)))
            flat = self._encode_sequences(seqs)
        out = flat.data.reshape(len(self.bank), len(class_names), self.cfg.d)
        self._anchor_cache[key] = out
        return out

    def class_rows(self, class_names: list[str], with_bias: bool = True) -> Tensor:
        """Learnable-prompt class features, shape (G, C, d), grad-connected."""
        groups = []
        for g in range(self.prompt_set.groups):
            context = self.prompt_set.vectors[g]
            seqs = [assemble_learnable_prompt(context, name, self.text_encoder,
                                              self.tokenizer)
                    for name in class_names]
            groups.append(self._encode_sequences(seqs))
        rows = stack(groups, axis=0)
        if with_bias:
            rows = apply_bias_correction(rows, self.prompt_set.bias)
        return rows

    # -- vision side ----------------------------------------------------------

    def encode_images(self, images: np.ndarray) -> Tensor:
        """(B, d) features of a (B, h, w, c) image batch."""
        return self.vision_encoder.encode_batch(
            Tensor(np.asarray(images, dtype=np.float64)))


def build_model(enc_cfg: EncoderConfig, bank: TemplateBank, seed: int, *,
                words: str | None, m: int, jitter: float = 0.3) -> PromptedClip:
    """Fresh model with one prompt group per template group of ``bank``.

    ``words`` is a phrase whose first ``m`` words warm-start every group
    (plus ``jitter`` Gaussian noise); ``None`` draws small Gaussian vectors.
    """
    if words is None:
        prompts = init_prompts(bank.groups, m, enc_cfg.d_tok, enc_cfg.d, seed)
    else:
        tok = Tokenizer(max_len=enc_cfg.max_len)
        picked = tok.words_of(words)[:m]
        if not picked:
            raise ConfigError(f"prompt words {words!r} yielded no tokens")
        prompts = init_prompts_from_words(TextEncoder(enc_cfg), tok, picked,
                                          bank.groups, enc_cfg.d, seed, jitter)
    return PromptedClip(enc_cfg, prompts, bank)
