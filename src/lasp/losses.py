"""Probability distributions and losses over the joint embedding space.

Anchor features (hand-crafted side) enter as plain numpy arrays: they are
constants and never receive gradients. Learnable class rows enter as
tensors so gradients reach the prompts and the shared bias.
"""

from __future__ import annotations

import numpy as np

from .autodiff import (Tensor, _accum_normalize_terms, _log_softmax_data,
                       _log_softmax_grad, _normalize_rows_data,
                       _normalize_rows_grad, _softmax_grad, _tracked,
                       _unbroadcast)
from .errors import ConfigError, DataError
from .prompts import TemplateBank

LOSS_KINDS = ("ce", "l1", "l2")


def unit_rows(a: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """Rows of a constant array scaled to unit length (norms floored at eps)."""
    norm = np.sqrt((a * a).sum(axis=-1, keepdims=True))
    return a / np.maximum(norm, eps)


# Each score and loss below is one tape node whose forward and backward
# evaluate the numpy expressions of the composite op-by-op chain it replaces
# (``normalize_rows``, matmul, mean, ``log_softmax`` or ``softmax``, log,
# the one-hot or diagonal mask, sum, negation, scale), in the chain's
# order, so values and grads equal that chain's bit for bit.


def _cosine_data(rows: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, tuple]:
    """(B, C) group-averaged cosines of rows (G, C, d) and features (B, d),
    and what their backward needs."""
    nf, nf_saved = _normalize_rows_data(f)
    nr, nr_saved = _normalize_rows_data(rows)
    nrt = nr.transpose(0, 2, 1)
    cos = nf @ nrt                                        # (G, B, C)
    return cos.sum(axis=0) * (1.0 / len(cos)), (nf, nf_saved, nrt, nr_saved)


def _cosine_grad(g: np.ndarray, rows: Tensor, f: Tensor, saved: tuple):
    """Accumulate the grads of a ``_cosine_data`` output into ``f``, then
    ``rows``, each if tracked."""
    nf, nf_saved, nrt, nr_saved = saved
    g = g * (1.0 / len(nrt))
    g = np.broadcast_to(g[None], (len(nrt), *g.shape)).copy()
    if _tracked(f):
        gf = _unbroadcast(g @ np.swapaxes(nrt, -1, -2), nf.shape)
        _accum_normalize_terms(f, _normalize_rows_grad(gf, f.data, nf_saved))
    if _tracked(rows):
        gr = (np.swapaxes(nf, -1, -2) @ g).transpose(0, 2, 1)
        _accum_normalize_terms(rows, _normalize_rows_grad(gr, rows.data,
                                                          nr_saved))


def grouped_cosine_scores(rows: Tensor, f: Tensor) -> Tensor:
    """(B, C) group-averaged cosine between class rows (G, C, d) and features
    (B, d), as one node."""
    out, saved = _cosine_data(rows.data, f.data)
    return Tensor._make(out, (rows, f),
                        lambda g: _cosine_grad(g, rows, f, saved))


def vl_loss(rows: Tensor, f: Tensor, labels, tau: float) -> Tensor:
    """Batch-mean cross-entropy of images against group-averaged class
    scores, as one node from the (bias-shifted) rows and the features."""
    if np.linalg.norm(f.data, axis=-1).min() < 1e-12:
        raise DataError("zero-norm feature vector")
    labels = np.asarray(labels, dtype=np.int64)
    n_classes = rows.shape[-2]
    if labels.min() < 0 or labels.max() >= n_classes:
        raise DataError(f"label out of range [0, {n_classes})")
    scores, saved = _cosine_data(rows.data, f.data)       # (B, C)
    logp = _log_softmax_data(scores * (1.0 / tau), -1, "log_softmax")
    onehot = np.zeros(logp.shape)
    onehot[np.arange(labels.size), labels] = 1.0
    out = -(logp * onehot).sum() * (1.0 / labels.size)

    def bw(g):
        g = -(g * (1.0 / labels.size)) * onehot
        g = _log_softmax_grad(g, logp, -1) * (1.0 / tau)
        _cosine_grad(g, rows, f, saved)

    return Tensor._make(out, (rows, f), bw)


def _template_probs_data(anchors: np.ndarray, x: np.ndarray, tau: float
                         ) -> tuple[np.ndarray, tuple]:
    """(N, C) template-averaged probabilities of rows ``x`` (N, d) against an
    (L, C, d) anchor stack, and what their backward needs."""
    bt = unit_rows(anchors).transpose(0, 2, 1)
    nx, nx_saved = _normalize_rows_data(x)
    p = np.exp(_log_softmax_data((nx @ bt) * (1.0 / tau), -1, "softmax"))
    return p.sum(axis=0) * (1.0 / len(p)), (bt, nx, nx_saved, p, tau)


def _template_probs_grad(g: np.ndarray, x: np.ndarray, saved: tuple
                         ) -> tuple[np.ndarray, np.ndarray]:
    """The input grad terms (see ``_normalize_rows_grad``) of a
    ``_template_probs_data`` output."""
    bt, nx, nx_saved, p, tau = saved
    g = g * (1.0 / len(p))
    g = np.broadcast_to(g[None], p.shape).copy()
    g = _softmax_grad(g, p, -1) * (1.0 / tau)
    gx = _unbroadcast(g @ np.swapaxes(bt, -1, -2), nx.shape)
    return _normalize_rows_grad(gx, x, nx_saved)


def _check_anchors(anchors: np.ndarray):
    if anchors.ndim != 3 or anchors.shape[0] == 0:
        raise ConfigError("need a non-empty (L, C, d) anchor stack")


def template_averaged_probs(anchors: np.ndarray, x: Tensor, tau: float) -> Tensor:
    """(N, C) class probabilities of each row of ``x``, averaged over
    templates, as one node.

    ``anchors`` is a non-empty (L, C, d) stack and ``x`` is (N, d):
    learnable class rows in the text-to-text loss, image features in
    zero-shot inference. The average is over probability vectors, not
    logits.
    """
    _check_anchors(anchors)
    out, saved = _template_probs_data(anchors, x.data, tau)
    return Tensor._make(out, (x,), lambda g: _accum_normalize_terms(
        x, _template_probs_grad(g, x.data, saved)))


def _ce_loss(anchor_groups: list[np.ndarray], rows: Tensor, tau: float
             ) -> Tensor:
    """The CE text-to-text loss summed over groups, as one node: group g's
    rows (``rows[g]``, (C, d)) classified against ``anchor_groups[g]``
    ((L_g, C_all, d), C_all >= C) by template-averaged probabilities, row c
    targeting column c; the negative log of the target averaged over rows."""
    for anchors in anchor_groups:
        _check_anchors(anchors)
    c_base = rows.shape[1]
    eye = np.eye(c_base, anchor_groups[0].shape[1])
    parts, out = [], None
    for anchors, x in zip(anchor_groups, rows.data):
        probs, saved = _template_probs_data(anchors, x, tau)
        parts.append((probs, saved))
        part = -(np.log(probs) * eye).sum() * (1.0 / c_base)
        out = part if out is None else out + part

    def bw(g):
        grad = np.zeros_like(rows.data)
        g = -(g * (1.0 / c_base)) * eye
        for grad_g, x, (probs, saved) in zip(grad, rows.data, parts):
            gx, t = _template_probs_grad(g / probs, x, saved)
            gx += t
            gx += t
            grad_g += gx
        rows._accum(grad)

    return Tensor._make(out, (rows,), bw)


def _check_tt_inputs(anchors: np.ndarray, c_base: int, kind: str):
    if kind not in LOSS_KINDS:
        raise ConfigError(f"unknown loss kind {kind!r}")
    if anchors.shape[1] < c_base:
        raise DataError("anchor class set smaller than learnable class set")


def tt_loss(anchors: np.ndarray, rows: Tensor, tau: float,
            kind: str = "ce") -> Tensor:
    """Text-to-text loss: each learnable class row classified against anchors.

    ``anchors`` is (L, C_all, d) covering base plus any virtual classes;
    ``rows`` is (C_base, d). Class ordering is base-first, so row c targets
    anchor column c. Averaged over classes so the loss scale is independent
    of how many classes a step carries.
    """
    c_base = rows.shape[0]
    _check_tt_inputs(anchors, c_base, kind)
    if kind == "ce":
        return _ce_loss([anchors], rows.reshape(1, *rows.shape), tau)
    # ablation losses regress each row onto its class-mean anchor
    target = Tensor(anchors.mean(axis=0)[:c_base])
    diff = rows - target
    if kind == "l1":
        return diff.abs().mean(axis=-1).sum() * (1.0 / c_base)
    return (diff * diff).mean(axis=-1).sum() * (1.0 / c_base)


def grouped_tt_loss(anchors: np.ndarray, rows: Tensor, bank: TemplateBank,
                    tau: float, kind: str = "ce") -> Tensor:
    """Sum over groups of the text-to-text loss on that group's templates;
    with ``ce``, one node over every group."""
    if rows.data.ndim != 3:
        raise ConfigError(f"expected (G, C_base, d) rows, got {rows.shape}")
    groups = rows.shape[0]
    if bank.groups != groups:
        raise ConfigError(f"bank has {bank.groups} groups, rows have {groups}")
    if len(bank) != anchors.shape[0]:
        raise ConfigError("anchor stack does not cover the template bank")
    _check_tt_inputs(anchors, rows.shape[1], kind)
    idxs = [bank.indices_of_group(g) for g in range(groups)]
    for g, idx in enumerate(idxs):
        if not idx:
            raise ConfigError(f"group {g} has no templates")
    if kind == "ce":
        return _ce_loss([anchors[idx] for idx in idxs], rows, tau)
    total = None
    for g, idx in enumerate(idxs):
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
