"""Frozen miniature dual encoder: transformer text tower and patch vision tower.

Weights are drawn once from a seeded Gaussian and frozen ("synthetic
pretrained"): each tower makes them read-only when it is built, all but the
vision tower's LayerNorm affines, which ``ln_finetune`` trains and
checkpoints restore in place. Gradients flow only through inputs (prompt
slots, image pixels) and, when enabled, those affines.
"""

from __future__ import annotations

import ctypes
import functools
import math
import platform
import warnings
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, concat, layer_norm, no_grad, transformer_block
from .errors import ConfigError, DataError
from .prompts import render_template
from .tokenizer import END_ID, START_ID, VOCAB_SIZE, Tokenizer

# Frozen settings no configuration varies.
TAU = 0.01            # temperature; frozen, CLIP's converged value
IMAGE_SIZE = 16
CHANNELS = 3
IMAGE_SHAPE = (IMAGE_SIZE, IMAGE_SIZE, CHANNELS)
PATCH_SIZE = 4
FFN_MULT = 2          # feed-forward width / d_tok
EMB_STD = 1.0         # token/positional embedding scale
WEIGHT_GAIN = 4.0     # weight std = gain / sqrt(fan_in)


@dataclass(frozen=True)
class EncoderConfig:
    d_tok: int = 32
    d: int = 32              # joint embedding dimension
    n_layers: int = 2
    n_heads: int = 2
    max_len: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.d_tok % self.n_heads != 0:
            raise ConfigError("d_tok must divide evenly into heads")
        if self.n_layers < 1:
            raise ConfigError("n_layers must be >= 1")


def _by_length(seqs: list[np.ndarray]) -> tuple[list[np.ndarray], np.ndarray]:
    """Equal-length sequences stacked into one batch each, in order of first
    appearance, and the index array that puts the batches' rows back in
    input order."""
    buckets: dict[int, list[int]] = {}
    for i, s in enumerate(seqs):
        buckets.setdefault(len(s), []).append(i)
    batches = [np.stack([seqs[i] for i in idxs]) for idxs in buckets.values()]
    return batches, np.argsort(np.concatenate(list(buckets.values())))


# glibc mallopt parameters (name, number in malloc.h) and the values a tower
# build sets
_HEAP_SETTINGS = (("M_TRIM_THRESHOLD", -1, 256 << 20),
                  ("M_MMAP_THRESHOLD", -3, 4 << 20))


def _keep_freed_heap() -> None:
    """Keep the memory a tower pass frees in this process's heap (glibc only).

    A train step frees a few MB of tape buffers, and an encode without a
    tape frees each block's activations when the block returns. By default
    glibc trims the top of the heap back to the OS, and the next step or
    chunk faults the same pages in again. A trim threshold of 256 MB stops
    that. Setting any threshold also turns off glibc's dynamic mmap
    threshold, after which the vision tower's ~560 KB activations would be
    mmapped and unmapped every pass, so the mmap threshold is raised to
    4 MB as well: above every step and chunk buffer, below a split's
    6 MB image array, which goes back to the OS when it is freed. Neither
    is ever undone. Calling this again sets the same values; off glibc it
    does nothing.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for name, param, value in _HEAP_SETTINGS:
        if mallopt(param, value) != 1:
            # the numbers do not depend on it; only time and faults do
            warnings.warn(f"glibc refused mallopt({name}, {value})",
                          RuntimeWarning, stacklevel=2)


def _gauss(rng, shape):
    return rng.normal(0.0, EMB_STD, size=shape)


def _freeze(params, keep=()) -> None:
    """Make the data of every tensor in ``params`` read-only but ``keep``'s."""
    for t in params:
        if not any(t is k for k in keep):
            t.data.flags.writeable = False


def _weight(rng, shape):
    # width-scaled init keeps activations O(1) so the class token's
    # contribution survives the residual stream of a random network
    return rng.normal(0.0, WEIGHT_GAIN / math.sqrt(shape[0]), size=shape)


def pool_project(h: Tensor, row: int, lead: tuple, proj: Tensor) -> Tensor:
    """``h[:, row, :].reshape(*lead, D) @ proj`` as one node: the pooled
    rows of a (N, rows, D) trunk output, given back their leading shape and
    projected by the frozen ``proj``. Forward and backward are the getitem,
    reshape and matmul nodes' expressions, so its bits are theirs."""
    pooled = h.data[:, row, :].reshape(*lead, h.shape[-1])

    def bw(g):
        full = np.zeros_like(h.data)
        full[:, row, :] += (g @ np.swapaxes(proj.data, -1, -2)).reshape(
            len(full), -1)
        h._accum(full)

    return Tensor._make(pooled @ proj.data, (h,), bw)


class _Transformer:
    """Shared pre-LN transformer stack over (B, S, D) inputs; each block is
    one tape node (``autodiff.transformer_block``). Only the pooled row's
    path is computed in the last block: it runs on two adjacent rows that
    hold the pooled one (see ``transformer_block``'s ``rows``).

    Building one calls ``_keep_freed_heap``, so the fixture's pixel ascent,
    training and evaluation all run under one allocator setting, while
    importing lasp changes none.
    """

    def __init__(self, cfg: EncoderConfig, rng, prefix: str):
        _keep_freed_heap()
        self.cfg = cfg
        self.prefix = prefix
        self.layers = []
        width = cfg.d_tok
        for i in range(cfg.n_layers):
            lyr = {
                "wq": Tensor(_weight(rng, (width, width))),
                "wk": Tensor(_weight(rng, (width, width))),
                "wv": Tensor(_weight(rng, (width, width))),
                "wo": Tensor(_weight(rng, (width, width))),
                "ln1_g": Tensor(np.ones(width)),
                "ln1_b": Tensor(np.zeros(width)),
                "w1": Tensor(_weight(rng, (width, width * FFN_MULT))),
                "b1": Tensor(np.zeros(width * FFN_MULT)),
                "w2": Tensor(_weight(rng, (width * FFN_MULT, width))),
                "b2": Tensor(np.zeros(width)),
                "ln2_g": Tensor(np.ones(width)),
                "ln2_b": Tensor(np.zeros(width)),
            }
            self.layers.append(lyr)
        self.ln_f_g = Tensor(np.ones(width))
        self.ln_f_b = Tensor(np.zeros(width))

    def ln_params(self) -> list[Tensor]:
        out = []
        for lyr in self.layers:
            out += [lyr["ln1_g"], lyr["ln1_b"], lyr["ln2_g"], lyr["ln2_b"]]
        out += [self.ln_f_g, self.ln_f_b]
        return out

    def named_params(self) -> dict[str, Tensor]:
        out = {}
        for i, lyr in enumerate(self.layers):
            for k, v in lyr.items():
                out[f"{self.prefix}.layer{i}.{k}"] = v
        out[f"{self.prefix}.ln_f_g"] = self.ln_f_g
        out[f"{self.prefix}.ln_f_b"] = self.ln_f_b
        return out

    def forward(self, x: Tensor, rows: slice) -> Tensor:
        """(B, 2, D) final-LayerNorm outputs of the two ``rows``, which are
        bit for bit those rows of the whole stack's output."""
        *early, last = self.layers
        for lyr in early:
            x = transformer_block(x, lyr, self.cfg.n_heads)
        x = transformer_block(x, last, self.cfg.n_heads, rows=rows)
        return layer_norm(x, self.ln_f_g, self.ln_f_b)


class TextEncoder:
    """Frozen text tower; pools at the end-token (last) position.

    It owns the tokenizer of its ``max_len`` and the frozen text work: the
    anchors of hand-crafted templates and the constant name frames of
    learnable prompts, each cached per input and read-only, as is every
    weight. lasp reaches the one tower of a config through ``text_tower``.
    """

    def __init__(self, cfg: EncoderConfig):
        self.cfg = cfg
        self.tokenizer = Tokenizer(max_len=cfg.max_len)
        rng = np.random.default_rng(cfg.seed)
        self.embedding = _gauss(rng, (VOCAB_SIZE, cfg.d_tok))
        self.pos = Tensor(_gauss(rng, (cfg.max_len, cfg.d_tok)))
        self.trunk = _Transformer(cfg, rng, "text")
        self.proj = Tensor(_weight(rng, (cfg.d_tok, cfg.d)))
        _freeze(self.named_params().values())
        self._anchor_cache: dict[tuple, np.ndarray] = {}
        self._frame_cache: dict[tuple[str, ...],
                                tuple[list[np.ndarray], np.ndarray]] = {}

    def named_params(self) -> dict[str, Tensor]:
        out = {"text.embedding": Tensor(self.embedding), "text.pos": self.pos,
               "text.proj": self.proj}
        out.update(self.trunk.named_params())
        return out

    def embed_ids(self, ids: list[int]) -> np.ndarray:
        return self.embedding[np.asarray(ids, dtype=np.int64)]

    def embed_class_name(self, class_name: str) -> np.ndarray:
        """Word-embedding rows of the class-name tokens (no start/end)."""
        if not class_name.strip():
            raise DataError("empty class name")
        tok = self.tokenizer
        words = tok.words_of(class_name.replace("_", " "))
        return self.embed_ids([tok.word_id(w) for w in words])

    def anchors(self, templates: list[str], class_names: list[str]
                ) -> np.ndarray:
        """Frozen features of every template rendered with every class
        name, shape (L, C, d); cached per (templates, class names).

        A rendered template the tokenizer would cut short raises
        ``ConfigError``: the cut drops the class name, which comes last.
        """
        key = (tuple(templates), tuple(class_names))
        cached = self._anchor_cache.get(key)
        if cached is not None:
            return cached
        tok = self.tokenizer
        seqs = []
        for template in templates:
            for name in class_names:
                words = tok.words_of(render_template(template, name))
                if len(words) > tok.max_len - 2:
                    raise ConfigError(
                        f"template {template!r} with class {name!r} has "
                        f"{len(words)} words; at most {tok.max_len - 2} fit "
                        f"in {tok.max_len} tokens")
                seqs.append(self.embed_ids(tok.ids_of(words)))
        batches, restore = _by_length(seqs)
        with no_grad():
            flat = np.concatenate([self.encode_batch(Tensor(b)).data
                                   for b in batches])
        out = flat[restore].reshape(len(templates), len(class_names), self.cfg.d)
        out.flags.writeable = False
        self._anchor_cache[key] = out
        return out

    def name_frames(self, class_names: list[str]
                    ) -> tuple[list[np.ndarray], np.ndarray]:
        """Constant [start, name tokens, end] embedding rows per class,
        batched by length (see ``_by_length``); cached per class list."""
        key = tuple(class_names)
        cached = self._frame_cache.get(key)
        if cached is None:
            start, end = self.embed_ids([START_ID]), self.embed_ids([END_ID])
            batches, restore = cached = _by_length(
                [np.concatenate([start, self.embed_class_name(name), end])
                 for name in class_names])
            for a in (*batches, restore):
                a.flags.writeable = False
            self._frame_cache[key] = cached
        return cached

    def encode_batch(self, x: Tensor) -> Tensor:
        """(..., d) features of (..., S, d_tok) embeddings, any leading shape
        and S >= 2.

        The trunk runs once over the flattened batch, its last block on rows
        S-2 and S-1 only. The pooled rows get their leading shape back before
        ``@ proj``, so each trailing batch is projected by its own matrix
        product, as it would be on its own (BLAS picks the kernel by row
        count).
        """
        if x.data.ndim < 3:
            raise DataError(f"expected (..., S, d_tok) embeddings, got {x.shape}")
        *lead, s, d_tok = x.shape
        if s > self.cfg.max_len:
            raise DataError(f"sequence length {s} exceeds max {self.cfg.max_len}")
        if s < 2:
            raise DataError(f"sequence length {s}: a sequence holds at least "
                            f"its start and end tokens")
        h = self.trunk.forward(x.reshape(-1, s, d_tok) + self.pos[:s],
                               slice(s - 2, s))
        return pool_project(h, 1, lead, self.proj)  # end token is last


@functools.cache
def text_tower(cfg: EncoderConfig) -> TextEncoder:
    """The one text tower of ``cfg`` in this process, shared with its
    caches by the fixture, ``RunContext`` and every model. It holds no state
    a fit changes; its cached arrays are read-only."""
    return TextEncoder(cfg)


class VisionEncoder:
    """Frozen patch-transformer vision tower with optionally trainable LN;
    every weight but the LN affines of ``trunk.ln_params()`` is read-only."""

    def __init__(self, cfg: EncoderConfig):
        self.cfg = cfg
        rng = np.random.default_rng(cfg.seed + 1)
        p = PATCH_SIZE
        self.w_patch = Tensor(_weight(rng, (p * p * CHANNELS, cfg.d_tok)))
        self.cls = _gauss(rng, (cfg.d_tok,))
        n_patches = (IMAGE_SIZE // p) ** 2
        self.pos = Tensor(_gauss(rng, (n_patches + 1, cfg.d_tok)))
        self.trunk = _Transformer(cfg, rng, "vision")
        self.proj = Tensor(_weight(rng, (cfg.d_tok, cfg.d)))
        _freeze(self.named_params().values(), keep=self.trunk.ln_params())

    def set_ln_trainable(self, flag: bool):
        for t in self.trunk.ln_params():
            t.requires_grad = bool(flag)

    def named_params(self) -> dict[str, Tensor]:
        out = {"vision.w_patch": self.w_patch, "vision.cls": Tensor(self.cls),
               "vision.pos": self.pos, "vision.proj": self.proj}
        out.update(self.trunk.named_params())
        return out

    def _patchify(self, images: Tensor) -> Tensor:
        p = PATCH_SIZE
        b, h, w, c = images.shape
        x = images.reshape(b, h // p, p, w // p, p, c)
        x = x.transpose(0, 1, 3, 2, 4, 5)
        return x.reshape(b, (h // p) * (w // p), p * p * c)

    def encode_batch(self, images: Tensor) -> Tensor:
        if images.data.ndim != 4:
            raise DataError(f"expected (B, h, w, c) images, got {images.shape}")
        b, *hwc = images.shape
        if tuple(hwc) != IMAGE_SHAPE:
            raise DataError(f"images have shape {tuple(hwc)}, "
                            f"the encoder takes {IMAGE_SHAPE}")
        tokens = self._patchify(images) @ self.w_patch
        cls = Tensor(np.broadcast_to(self.cls, (b, 1, self.cfg.d_tok)).copy())
        x = concat([cls, tokens], axis=1) + self.pos
        x = self.trunk.forward(x, slice(0, 2))
        return pool_project(x, 0, (b,), self.proj)  # class token is first


def trainable_parameters(prompt_set, vision_encoder: VisionEncoder,
                         ln_finetune: bool) -> dict[str, Tensor]:
    """Exactly {prompt vectors, shared bias} plus vision LN affines if enabled."""
    params = {"prompts.vectors": prompt_set.vectors, "prompts.bias": prompt_set.bias}
    if ln_finetune:
        trunk = vision_encoder.trunk
        ln = trunk.ln_params()
        params.update((k, p) for k, p in trunk.named_params().items()
                      if any(p is t for t in ln))
    return params
