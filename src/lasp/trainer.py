"""Few-shot SGD training loop over the combined image-text / text-text objective."""

from __future__ import annotations

import contextlib
import ctypes
import math
import platform
import warnings
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor
from .encoders import trainable_parameters
from .errors import ConfigError, DataError, DivergenceError
from .losses import (LOSS_KINDS, apply_bias_correction, combined_loss,
                     grouped_tt_loss, vl_loss)
from .model import PromptedClip
from .prompts import ClassVocabulary
from .serialization import load_tensors, save_tensors


@dataclass
class TrainConfig:
    alpha_vl: float = 1.0
    alpha_tt: float = 20.0
    lr: float = 0.002
    epochs: int = 10
    warmup_epochs: int = 1
    batch_size: int = 16
    shots: int = 16
    groups: int = 3
    ln_finetune: bool = False
    seed: int = 0
    loss_kind: str = "ce"
    virtual_classes: tuple[str, ...] = ()
    clip_norm: float = 10.0
    divergence_limit: float = 1e6

    def __post_init__(self):
        # NaN passes every comparison below, so finiteness is checked first
        if not all(map(math.isfinite, (self.lr, self.alpha_vl, self.alpha_tt))):
            raise ConfigError("lr, alpha_vl and alpha_tt must be finite")
        if math.isnan(self.clip_norm) or math.isnan(self.divergence_limit):
            raise ConfigError("clip_norm and divergence_limit must not be NaN")
        if self.lr <= 0 or self.batch_size < 1 or self.epochs < 0:
            raise ConfigError("rates and counts must be positive")
        if self.clip_norm <= 0:
            raise ConfigError("clip_norm must be positive (use inf to disable)")
        if self.shots < 1 or self.groups < 1:
            raise ConfigError("shots and groups must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.warmup_epochs < 0 or self.warmup_epochs > max(self.epochs, 1):
            raise ConfigError("warmup_epochs out of range")
        if self.loss_kind not in LOSS_KINDS:
            raise ConfigError(f"unknown loss kind {self.loss_kind!r}")


@dataclass
class FewShotDataset:
    images: np.ndarray       # (N, h, w, c)
    labels: np.ndarray       # (N,) integer indices into the class list
    split: str               # base-train | base-test | new-test

    def __len__(self) -> int:
        return len(self.labels)


def sample_few_shot(images: np.ndarray, labels: np.ndarray, shots: int,
                    seed: int) -> FewShotDataset:
    """Deterministic per-class sample without replacement from base-train."""
    rng = np.random.default_rng(seed)
    picked = []
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        if idx.size < shots:
            raise DataError(f"class {c} has {idx.size} examples, need {shots}")
        picked.append(rng.choice(idx, size=shots, replace=False))
    sel = np.sort(np.concatenate(picked))
    return FewShotDataset(images[sel].copy(), labels[sel].copy(), "base-train")


def learning_rate_at(step: int, total_steps: int, warmup_steps: int,
                     base_lr: float) -> float:
    """Linear ramp to ``base_lr`` over warmup, then cosine annealing to 0."""
    if not 0 <= step < total_steps:
        raise ConfigError(f"step {step} outside schedule of {total_steps}")
    if warmup_steps > 0 and step < warmup_steps:
        return base_lr * (step + 1) / warmup_steps
    span = total_steps - 1 - warmup_steps
    if span <= 0:
        return 0.0 if step == total_steps - 1 and span == 0 else base_lr
    t = (step - warmup_steps) / span
    return 0.5 * base_lr * (1.0 + math.cos(math.pi * t))


@contextlib.contextmanager
def _overflow_is_divergence(step: int, stage: str):
    """Raise ``DivergenceError`` for a float overflow inside the block."""
    try:
        with np.errstate(over="raise"):
            yield
    except FloatingPointError as exc:
        raise DivergenceError(step, None, f"overflow in the {stage}",
                              terms=str(exc)) from None


# glibc mallopt parameters (name, number in malloc.h) and the values fit sets
_HEAP_SETTINGS = (("M_TRIM_THRESHOLD", -1, 256 << 20),
                  ("M_MMAP_THRESHOLD", -3, 32 << 20))


def _keep_freed_heap() -> None:
    """Keep the memory a train step frees in this process's heap (glibc only).

    A step frees a few MB of tape buffers. By default glibc trims the top
    of the heap back to the OS, and the next step faults the same pages in
    again. A trim threshold of 256 MB stops that. Setting any threshold also
    turns off glibc's dynamic mmap threshold, after which the vision tower's
    ~560 KB activations would be mmapped and unmapped every step, so the
    mmap threshold is raised to 32 MB as well. Neither is ever undone.
    Calling this again sets the same values; off glibc it does nothing.
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
                          RuntimeWarning, stacklevel=3)


@dataclass
class StepResult:
    l_vl: float
    l_tt: float
    total: float


@dataclass
class TrainLog:
    rows: list[tuple[int, int, float, float, float, float]] = field(default_factory=list)

    def append(self, epoch, step, lr, res: StepResult):
        self.rows.append((epoch, step, lr, res.l_vl, res.l_tt, res.total))

    def lines(self) -> list[str]:
        return [f"{e}, {s}, {lr:.10g}, {a:.10g}, {b:.10g}, {t:.10g}"
                for e, s, lr, a, b, t in self.rows]


class Trainer:
    def __init__(self, model: PromptedClip, vocabulary: ClassVocabulary,
                 config: TrainConfig):
        if model.prompt_set.groups != config.groups:
            raise ConfigError("prompt set group count disagrees with config")
        self.model = model
        self.config = config
        self.vocabulary = vocabulary.with_virtual(list(config.virtual_classes))
        self.params = trainable_parameters(model.prompt_set,
                                           model.vision_encoder,
                                           config.ln_finetune)
        model.vision_encoder.set_ln_trainable(config.ln_finetune)
        # anchors span base + virtual classes and stay constant all run
        self.anchors = model.anchors(self.vocabulary.all_names)

    def _losses(self, images: np.ndarray | None, labels: np.ndarray | None):
        """``images`` is a (B, h, w, c) batch, or the batch's (B, d) frozen
        features when the vision tower is not tuned."""
        cfg = self.config
        model = self.model
        base = self.vocabulary.base_names
        # Text-to-text regularizes the raw (pre-bias) prompt geometry over
        # base plus virtual names; the shared bias is a vision-alignment
        # correction, so only the image-facing rows receive it.
        rows_all_raw = model.class_rows(self.vocabulary.all_names,
                                        with_bias=False)
        nb = len(base)
        rows_base = apply_bias_correction(rows_all_raw[:, :nb, :],
                                          model.prompt_set.bias)
        l_vl = None
        if cfg.alpha_vl != 0.0:
            if np.ndim(images) != 2:
                feats = model.encode_images(images)
            elif cfg.ln_finetune:
                raise ConfigError("ln_finetune needs images, not features: "
                                  "features carry no LayerNorm gradient")
            else:
                feats = Tensor(images)
            l_vl = vl_loss(rows_base, feats, labels, model.tau)
        l_tt = None
        if cfg.alpha_tt != 0.0:
            l_tt = grouped_tt_loss(self.anchors, rows_all_raw, model.bank,
                                   model.tau, kind=cfg.loss_kind)
        zero = Tensor(0.0)
        total = combined_loss(l_vl if l_vl is not None else zero,
                              l_tt if l_tt is not None else zero,
                              cfg.alpha_vl, cfg.alpha_tt)
        return l_vl, l_tt, total

    def train_step(self, images: np.ndarray, labels: np.ndarray,
                   lr: float, step_index: int = 0) -> StepResult:
        cfg = self.config
        for p in self.params.values():
            p.zero_grad()
        with _overflow_is_divergence(step_index, "forward pass"):
            l_vl, l_tt, total = self._losses(images, labels)
        res = StepResult(l_vl.item() if l_vl is not None else 0.0,
                         l_tt.item() if l_tt is not None else 0.0, total.item())
        if not np.isfinite(res.total) or abs(res.total) > cfg.divergence_limit:
            raise DivergenceError(step_index, res.total,
                                  terms=f"l_vl {res.l_vl}, l_tt {res.l_tt}")
        with _overflow_is_divergence(step_index, "backward pass"):
            total.backward()
        # global-norm clipping: TT at tau=0.01 has near-flat plateaus next to
        # violent decision boundaries, so raw SGD steps can catapult prompts
        # an overflow here is reported below, before any parameter changes
        with np.errstate(over="ignore", invalid="ignore"):
            gnorm = np.sqrt(sum(float((p.grad ** 2).sum())
                                for p in self.params.values() if p.grad is not None))
            scale = min(1.0, cfg.clip_norm / max(gnorm, 1e-12))
            update_norm = lr * scale * gnorm
        if not np.isfinite(update_norm):
            bad = [k for k, p in self.params.items()
                   if p.grad is not None and not np.isfinite(p.grad).all()]
            raise DivergenceError(step_index, update_norm, "update norm",
                                  terms=(f"non-finite gradient in {', '.join(bad)}"
                                         if bad else "every gradient finite"))
        for p in self.params.values():
            if p.grad is None:
                continue
            p.data -= lr * scale * p.grad
            p.zero_grad()
        return res

    def fit(self, train_set: FewShotDataset) -> TrainLog:
        """Train over ``train_set``. When the vision tower is frozen, its
        features are encoded once here and each step gets its rows; features
        that are not finite raise ``DataError`` before the first step.

        On glibc, a fit first raises the allocator's trim threshold (to
        256 MB) and mmap threshold (to 32 MB) for the whole process, and
        leaves them raised: freed step buffers then stay in the heap
        instead of going back to the OS and faulting in again next step.
        The trim threshold alone would regress vision-tower steps, because
        setting it turns off glibc's dynamic mmap threshold. Other C
        libraries are left alone. No number a fit computes depends on this.
        """
        _keep_freed_heap()
        cfg = self.config
        inputs = train_set.images
        if cfg.alpha_vl != 0.0 and not cfg.ln_finetune:
            inputs = self.model.frozen_features(train_set)
        n = len(train_set)
        steps_per_epoch = max(1, math.ceil(n / cfg.batch_size))
        total_steps = cfg.epochs * steps_per_epoch
        warmup_steps = cfg.warmup_epochs * steps_per_epoch
        rng = np.random.default_rng(cfg.seed)
        log = TrainLog()
        step = 0
        for epoch in range(cfg.epochs):
            order = rng.permutation(n)
            for b in range(steps_per_epoch):
                sel = order[b * cfg.batch_size : (b + 1) * cfg.batch_size]
                lr = learning_rate_at(step, total_steps, warmup_steps, cfg.lr)
                res = self.train_step(inputs[sel], train_set.labels[sel], lr,
                                      step_index=step)
                log.append(epoch, step, lr, res)
                step += 1
        return log


# -- checkpoints ---------------------------------------------------------------


def _encoder_meta(model: PromptedClip) -> dict[str, str]:
    """The frozen encoder a checkpoint's tensors only make sense with."""
    cfg = model.cfg
    return {"d": str(cfg.d), "d_tok": str(cfg.d_tok),
            "n_layers": str(cfg.n_layers), "n_heads": str(cfg.n_heads),
            "max_len": str(cfg.max_len), "encoder_seed": str(cfg.seed)}


def save_checkpoint(path, model: PromptedClip, config: TrainConfig, steps: int):
    named = {k: p.data for k, p in trainable_parameters(
        model.prompt_set, model.vision_encoder, True).items()}
    meta = {"steps": str(steps), "seed": str(config.seed),
            "config": repr(config), "groups": str(model.prompt_set.groups),
            "m_prompts": str(model.prompt_set.m),
            "templates": model.bank.source, **_encoder_meta(model)}
    save_tensors(path, named, meta=meta)


def load_checkpoint(path, model: PromptedClip) -> dict[str, str]:
    """Copy every trainable tensor from ``path`` into ``model``.

    Raises ``DataError`` before touching the model if the checkpoint was
    written for another encoder (any ``EncoderConfig`` field; keys a
    checkpoint lacks are not checked), or if a tensor is missing, its shape
    differs from the model's (e.g. another group count) or it holds a
    non-finite value.
    """
    named, meta = load_tensors(path)
    for k, ours in _encoder_meta(model).items():
        if meta.get(k, ours) != ours:
            raise DataError(f"checkpoint {path}: written for {k}={meta[k]}, "
                            f"this model has {k}={ours}")
    targets = trainable_parameters(model.prompt_set, model.vision_encoder, True)
    for k, p in targets.items():
        found = named[k].shape if k in named else "nothing"
        if found != p.shape:
            raise DataError(f"checkpoint {path}: tensor {k} should have shape "
                            f"{p.shape}, found {found}")
        if not np.isfinite(named[k]).all():
            raise DataError(f"checkpoint {path}: tensor {k} holds non-finite "
                            "values")
    for k, p in targets.items():
        p.data[...] = named[k]
    return meta
