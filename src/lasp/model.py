"""Ties the frozen dual encoder to the learnable prompt state."""

from __future__ import annotations

import math

import numpy as np

from .autodiff import NumericError, Tensor, concat, no_grad
from .encoders import EncoderConfig, VisionEncoder, text_tower
from .errors import DataError
from .losses import apply_bias_correction
from .prompts import PromptSet, TemplateBank, assemble_learnable_prompt

# Largest vision pass. A pass over many more images allocates activations
# large enough that the allocator hands them back to the OS and faults them
# in again on every encode; passes of at most this many reuse their memory.
IMAGE_CHUNK = 64

class PromptedClip:
    """Synthetic-pretrained dual encoder plus a learnable prompt set.

    The frozen text work (tokenizer, anchors, name frames and their caches)
    lives in the text tower its config shares with every other model
    (``text_tower``); the model owns its vision tower, whose LayerNorm
    affines a fit may train, the prompt set and the bank of hand-crafted
    templates its anchors are computed from.
    """

    def __init__(self, enc_cfg: EncoderConfig, prompt_set: PromptSet,
                 bank: TemplateBank):
        self.cfg = enc_cfg
        self.text_encoder = text_tower(enc_cfg)
        self.vision_encoder = VisionEncoder(enc_cfg)
        self.prompt_set = prompt_set
        self.bank = bank

    # -- text side ------------------------------------------------------------

    def anchors(self, class_names: list[str]) -> np.ndarray:
        """The bank's frozen anchors, shape (L, C, d) (``TextEncoder.anchors``)."""
        return self.text_encoder.anchors(self.bank.templates, class_names)

    def class_rows(self, class_names: list[str], with_bias: bool = True) -> Tensor:
        """Learnable-prompt class features, shape (G, C, d), grad-connected.

        One text-tower pass per token length covers all G groups: the
        assembled (G, C_len, S, d_tok) batch of every group's sequences.
        Names of one length need no concat and no reordering.
        """
        frames, restore = self.text_encoder.name_frames(class_names)
        outs = [self.text_encoder.encode_batch(
                    assemble_learnable_prompt(self.prompt_set.vectors, frame))
                for frame in frames]
        # one bucket holds every name in input order
        rows = outs[0] if len(outs) == 1 else concat(outs, axis=1)[:, restore]
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
        """(N, d) read-only features of a ``FewShotDataset``'s images,
        encoded without a tape and kept in ``dataset.features`` for the
        vision-tower state they were encoded under; a new state replaces
        them. The images and every other tower weight are read-only, so
        that state is the tower's config and the bytes of its LayerNorm
        affines, which ``ln_finetune`` steps and ``load_checkpoint``
        rewrite in place. Pixels large enough to overflow the tower are a
        fault of the data: non-finite features raise ``DataError`` naming
        ``dataset.split``, and are not kept."""
        ve = self.vision_encoder
        key = (ve.cfg, b"".join(p.data.tobytes() for p in ve.trunk.ln_params()))
        feats = dataset.features.get(key)
        if feats is not None:
            return feats
        with no_grad(), np.errstate(over="ignore", invalid="ignore"):
            try:
                feats = self.encode_images(dataset.images).data
            except NumericError:    # an attention softmax met inf first
                feats = None
        if feats is None or not np.isfinite(feats).all():
            raise DataError(f"{dataset.split} image features are not finite")
        feats.flags.writeable = False
        dataset.features.clear()
        dataset.features[key] = feats
        return feats
