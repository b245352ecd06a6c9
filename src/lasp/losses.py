"""Probability distributions and losses over the joint embedding space.

Anchor features (hand-crafted side) enter as plain numpy arrays: they are
constants and never receive gradients. Learnable class rows enter as
tensors so gradients reach the prompts and the shared bias.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, log_softmax, normalize_rows, softmax
from .errors import ConfigError, DataError
from .prompts import TemplateBank

LOSS_KINDS = ("ce", "l1", "l2")


def unit_rows(a: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """Rows of a constant array scaled to unit length (norms floored at eps)."""
    norm = np.sqrt((a * a).sum(axis=-1, keepdims=True))
    return a / np.maximum(norm, eps)


def grouped_cosine_scores(rows: Tensor, f: Tensor) -> Tensor:
    """(B, C) group-averaged cosine between class rows (G, C, d) and features (B, d)."""
    cos = normalize_rows(f) @ normalize_rows(rows).transpose(0, 2, 1)  # (G, B, C)
    return cos.mean(axis=0)


def vl_loss(rows: Tensor, f: Tensor, labels, tau: float) -> Tensor:
    """Batch-mean cross-entropy of images against group-averaged class scores."""
    if np.linalg.norm(f.data, axis=-1).min() < 1e-12:
        raise DataError("zero-norm feature vector")
    labels = np.asarray(labels, dtype=np.int64)
    n_classes = rows.shape[-2]
    if labels.min() < 0 or labels.max() >= n_classes:
        raise DataError(f"label out of range [0, {n_classes})")
    scores = grouped_cosine_scores(rows, f)               # (B, C)
    logp = log_softmax(scores * (1.0 / tau), axis=-1)
    onehot = np.zeros(logp.shape)
    onehot[np.arange(labels.size), labels] = 1.0
    return -(logp * Tensor(onehot)).sum() * (1.0 / labels.size)


def template_averaged_probs(anchors: np.ndarray, x: Tensor, tau: float) -> Tensor:
    """(N, C) class probabilities of each row of ``x``, averaged over templates.

    ``anchors`` is a non-empty (L, C, d) stack and ``x`` is (N, d):
    learnable class rows in the text-to-text loss, image features in
    zero-shot inference. The average is over probability vectors, not
    logits.
    """
    if anchors.ndim != 3 or anchors.shape[0] == 0:
        raise ConfigError("need a non-empty (L, C, d) anchor stack")
    an = unit_rows(anchors)                               # (L, C, d)
    cos = normalize_rows(x) @ Tensor(an).transpose(0, 2, 1)   # (L, N, C)
    return softmax(cos * (1.0 / tau), axis=-1).mean(axis=0)


def tt_loss(anchors: np.ndarray, rows: Tensor, tau: float,
            kind: str = "ce") -> Tensor:
    """Text-to-text loss: each learnable class row classified against anchors.

    ``anchors`` is (L, C_all, d) covering base plus any virtual classes;
    ``rows`` is (C_base, d). Class ordering is base-first, so row c targets
    anchor column c. Averaged over classes so the loss scale is independent
    of how many classes a step carries.
    """
    if kind not in LOSS_KINDS:
        raise ConfigError(f"unknown loss kind {kind!r}")
    c_base = rows.shape[0]
    if anchors.shape[1] < c_base:
        raise DataError("anchor class set smaller than learnable class set")
    if kind == "ce":
        probs = template_averaged_probs(anchors, rows, tau)
        eye = np.eye(c_base, anchors.shape[1])
        return -((probs.log()) * Tensor(eye)).sum() * (1.0 / c_base)
    # ablation losses regress each row onto its class-mean anchor
    target = Tensor(anchors.mean(axis=0)[:c_base])
    diff = rows - target
    if kind == "l1":
        return diff.abs().mean(axis=-1).sum() * (1.0 / c_base)
    return (diff * diff).mean(axis=-1).sum() * (1.0 / c_base)


def grouped_tt_loss(anchors: np.ndarray, rows: Tensor, bank: TemplateBank,
                    tau: float, kind: str = "ce") -> Tensor:
    """Sum over groups of the text-to-text loss on that group's templates."""
    if rows.data.ndim != 3:
        raise ConfigError(f"expected (G, C_base, d) rows, got {rows.shape}")
    groups = rows.shape[0]
    if bank.groups != groups:
        raise ConfigError(f"bank has {bank.groups} groups, rows have {groups}")
    if len(bank) != anchors.shape[0]:
        raise ConfigError("anchor stack does not cover the template bank")
    total = None
    for g in range(groups):
        idx = bank.indices_of_group(g)
        if not idx:
            raise ConfigError(f"group {g} has no templates")
        part = tt_loss(anchors[idx], rows[g], tau, kind=kind)
        total = part if total is None else total + part
    return total


def combined_loss(l_vl, l_tt, alpha_vl: float, alpha_tt: float):
    if not (np.isfinite(alpha_vl) and np.isfinite(alpha_tt)):
        raise ConfigError("loss coefficients must be finite")
    return alpha_vl * l_vl + alpha_tt * l_tt


def apply_bias_correction(rows: Tensor, bias: Tensor) -> Tensor:
    """Shift every class row of every group by the single shared bias."""
    if rows.shape[-1] != bias.shape[-1]:
        raise ValueError(f"bias length {bias.shape} does not match rows {rows.shape}")
    return rows + bias
