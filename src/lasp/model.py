"""Ties the frozen dual encoder to the learnable prompt state."""

from __future__ import annotations

import contextvars
import math
import os
import threading
import time

import numpy as np

from . import autodiff
from .autodiff import NumericError, Tensor, concat, no_grad, stack
from .encoders import EncoderConfig, VisionEncoder, text_tower
from .errors import DataError
from .losses import apply_bias_correction
from .prompts import PromptSet, TemplateBank, assemble_learnable_prompt

# Largest vision pass. A pass over many more images allocates activations
# large enough that the allocator hands them back to the OS and faults them
# in again on every encode; passes of at most this many reuse their memory.
IMAGE_CHUNK = 64


def _cores() -> int:
    """Cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _join(thread: threading.Thread) -> None:
    """``thread.join()``, then on Linux wait until its OS thread is gone.

    ``join`` returns when the thread's Python state is released, before the
    OS thread runs glibc's exit handlers, one of which hands the thread's
    malloc arena back. A helper of the next call that starts before then
    finds no free arena, takes the main heap or a new arena, and faults a
    fresh set of activations in: about 1,100 pages on a 1,000-image encode.
    """
    thread.join()
    task = f"/proc/self/task/{thread.native_id}"
    while os.path.exists(task):
        time.sleep(0)


def _shared_map(fn, items: list, helpers: int) -> list:
    """``[fn(item) for item in items]``, worked off by the calling thread and
    ``helpers`` threads that live for this call only.

    Each thread takes the next unclaimed index and writes its result to that
    slot, so a thread that runs slower takes fewer items. Helpers run in
    copies of the caller's ``contextvars`` context, which carries NumPy's
    ``errstate``. After the first exception no item is handed out; it is
    raised here once every helper has stopped.
    """
    helpers = min(helpers, len(items) - 1)
    if helpers < 1:
        return [fn(item) for item in items]
    results = [None] * len(items)
    errors: list[BaseException] = []
    lock = threading.Lock()
    unclaimed = iter(range(len(items)))

    def work():
        while True:
            with lock:
                i = None if errors else next(unclaimed, None)
            if i is None:
                return
            try:
                results[i] = fn(items[i])
            except BaseException as e:      # raised by the caller below
                with lock:
                    errors.append(e)
                return

    threads = [threading.Thread(target=contextvars.copy_context().run,
                                args=(work,))
               for _ in range(helpers)]
    for t in threads:
        t.start()
    try:
        work()
    finally:
        for t in threads:
            _join(t)
    if errors:
        raise errors[0]
    return results


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

        One text-tower pass per token length covers all G groups: their
        assembled (C_len, S, d_tok) batches are stacked into one
        (G, C_len, S, d_tok) batch.
        """
        frames, restore = self.text_encoder.name_frames(class_names)
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
        near-equal chunks of at most ``IMAGE_CHUNK`` images.

        Without a tape the chunks are shared out over every core
        (``_shared_map``); a chunk's features depend on its images only, so
        the bits are those of the serial loop. A taped encode stays on the
        calling thread: the tape is not thread-safe.
        """
        x = np.asarray(images, dtype=np.float64)
        if x.ndim == 0 or len(x) <= IMAGE_CHUNK:
            return self.vision_encoder.encode_batch(Tensor(x))
        # near-equal chunks never hold a single image, whose features BLAS
        # computes by another kernel than a batch's
        chunks = np.array_split(x, math.ceil(len(x) / IMAGE_CHUNK))
        helpers = 0 if autodiff._grad_enabled else _cores() - 1
        return concat(_shared_map(
            lambda c: self.vision_encoder.encode_batch(Tensor(c)),
            chunks, helpers), axis=0)

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
