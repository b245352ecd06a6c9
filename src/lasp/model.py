"""Ties the frozen dual encoder to the learnable prompt state."""

from __future__ import annotations

import math

import numpy as np

from .autodiff import NumericError, Tensor, concat, no_grad, stack
from .encoders import TAU, EncoderConfig, TextEncoder, VisionEncoder
from .errors import DataError, TemplateError
from .losses import apply_bias_correction
from .prompts import (PromptSet, TemplateBank, assemble_learnable_prompt,
                      render_template)
from .tokenizer import END_ID, START_ID, Tokenizer

# Largest vision pass. A pass over many more images allocates activations
# large enough that the allocator hands them back to the OS and faults them
# in again on every encode; passes of at most this many reuse their memory.
IMAGE_CHUNK = 64


def _by_length(seqs: list[np.ndarray]) -> tuple[list[np.ndarray], np.ndarray]:
    """Equal-length sequences stacked into one batch each, in order of first
    appearance, and the index array that puts the batches' rows back in
    input order."""
    buckets: dict[int, list[int]] = {}
    for i, s in enumerate(seqs):
        buckets.setdefault(len(s), []).append(i)
    batches = [np.stack([seqs[i] for i in idxs]) for idxs in buckets.values()]
    return batches, np.argsort(np.concatenate(list(buckets.values())))


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
        self._frame_cache: dict[tuple[str, ...],
                                tuple[list[np.ndarray], np.ndarray]] = {}

    @property
    def tau(self) -> float:
        return TAU

    # -- text side ------------------------------------------------------------

    def anchors(self, class_names: list[str]) -> np.ndarray:
        """Frozen hand-crafted features, shape (L, C, d); cached per class set.

        A rendered template the tokenizer would cut short raises
        ``TemplateError``: the cut drops the class name, which comes last.
        """
        key = tuple(class_names)
        cached = self._anchor_cache.get(key)
        if cached is not None:
            return cached
        te, tok = self.text_encoder, self.tokenizer
        seqs = []
        for template in self.bank.templates:
            for name in class_names:
                words = tok.words_of(render_template(template, name))
                if len(words) > tok.max_len - 2:
                    raise TemplateError(
                        f"template {template!r} with class {name!r} has "
                        f"{len(words)} words; at most {tok.max_len - 2} fit "
                        f"in {tok.max_len} tokens")
                seqs.append(te.embed_ids(tok.ids_of(words)))
        batches, restore = _by_length(seqs)
        with no_grad():
            flat = np.concatenate([te.encode_batch(Tensor(b)).data
                                   for b in batches])
        out = flat[restore].reshape(len(self.bank), len(class_names), self.cfg.d)
        self._anchor_cache[key] = out
        return out

    def _name_frames(self, class_names: list[str]
                     ) -> tuple[list[np.ndarray], np.ndarray]:
        """Constant [start, name tokens, end] embedding rows per class,
        batched by length (see ``_by_length``); cached per class set."""
        key = tuple(class_names)
        cached = self._frame_cache.get(key)
        if cached is None:
            te, tok = self.text_encoder, self.tokenizer
            start, end = te.embed_ids([START_ID]), te.embed_ids([END_ID])
            cached = _by_length(
                [np.concatenate([start, te.embed_class_name(tok, name), end])
                 for name in class_names])
            self._frame_cache[key] = cached
        return cached

    def class_rows(self, class_names: list[str], with_bias: bool = True) -> Tensor:
        """Learnable-prompt class features, shape (G, C, d), grad-connected.

        One text-tower pass per token length covers all G groups: their
        assembled (C_len, S, d_tok) batches are stacked into one
        (G, C_len, S, d_tok) batch.
        """
        frames, restore = self._name_frames(class_names)
        contexts = [self.prompt_set.vectors[g]
                    for g in range(self.prompt_set.groups)]
        outs = [self.text_encoder.encode_batch(stack(
                    [assemble_learnable_prompt(context, frame)
                     for context in contexts]))
                for frame in frames]
        rows = concat(outs, axis=1)[:, restore]
        if with_bias:
            rows = apply_bias_correction(rows, self.prompt_set.bias)
        return rows

    # -- vision side ----------------------------------------------------------

    def encode_images(self, images: np.ndarray) -> Tensor:
        """(B, d) features of a (B, h, w, c) image batch, encoded in
        near-equal chunks of at most ``IMAGE_CHUNK`` images."""
        x = np.asarray(images, dtype=np.float64)
        if x.ndim == 0 or len(x) <= IMAGE_CHUNK:
            return self.vision_encoder.encode_batch(Tensor(x))
        # near-equal chunks never hold a single image, whose features BLAS
        # computes by another kernel than a batch's
        chunks = np.array_split(x, math.ceil(len(x) / IMAGE_CHUNK))
        return concat([self.vision_encoder.encode_batch(Tensor(c))
                       for c in chunks], axis=0)

    def frozen_features(self, dataset) -> np.ndarray:
        """(N, d) features of a split's images, encoded without a tape.
        Pixels large enough to overflow the tower are a fault of the data:
        non-finite features raise ``DataError`` naming ``dataset.split``."""
        with no_grad(), np.errstate(over="ignore", invalid="ignore"):
            try:
                feats = self.encode_images(dataset.images).data
            except NumericError:    # an attention softmax met inf first
                feats = None
        if feats is None or not np.isfinite(feats).all():
            raise DataError(f"{dataset.split} image features are not finite")
        return feats
