"""Dense float64 tensors with define-by-run reverse-mode differentiation.

The op set is deliberately small: exactly what the encoders and losses
need. Every op records a closure that accumulates adjoints into its
inputs; ``backward`` replays them in reverse topological order. Storage
is numpy, but all derivative rules live here.
"""

from __future__ import annotations

import contextlib
import math
from typing import Callable, Mapping, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested op."""


class NumericError(ValueError):
    """Non-finite values where finite ones are required."""


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (pure inference)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _is_basic_index(idx) -> bool:
    """Whether ``idx`` is numpy basic indexing: ints, slices, None, ``...``."""
    parts = idx if isinstance(idx, tuple) else (idx,)
    return all(p is None or p is Ellipsis or isinstance(p, slice)
               or (isinstance(p, (int, np.integer))
                   and not isinstance(p, (bool, np.bool_)))
               for p in parts)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _lift(x) -> "Tensor":
        return x if isinstance(x, Tensor) else Tensor(x)

    # -- bookkeeping ----------------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data.reshape(()))

    @staticmethod
    def _make(data, parents, backward) -> "Tensor":
        out = Tensor(data)
        if _grad_enabled and (backward is not None):
            tracked = tuple(p for p in parents
                            if p.requires_grad or p._backward is not None)
            if tracked:
                out._parents = tracked
                out._backward = backward
        return out

    def zero_grad(self):
        self.grad = None

    # -- elementwise ----------------------------------------------------------

    def __add__(self, other):
        other = Tensor._lift(other)
        a, b = self, other

        def bw(g):
            if a.requires_grad or a._backward:
                a._accum(_unbroadcast(g, a.data.shape))
            if b.requires_grad or b._backward:
                b._accum(_unbroadcast(g, b.data.shape))

        return self._make(a.data + b.data, (a, b), bw)

    def __neg__(self):
        a = self
        return self._make(-a.data, (a,), lambda g: a._accum(-g))

    def __sub__(self, other):
        return self + (-Tensor._lift(other))

    def __mul__(self, other):
        other = Tensor._lift(other)
        a, b = self, other

        def bw(g):
            if a.requires_grad or a._backward:
                a._accum(_unbroadcast(g * b.data, a.data.shape))
            if b.requires_grad or b._backward:
                b._accum(_unbroadcast(g * a.data, b.data.shape))

        return self._make(a.data * b.data, (a, b), bw)

    __rmul__ = __mul__

    def pow(self, p: float) -> "Tensor":
        a = self
        out_data = a.data ** p

        def bw(g):
            a._accum(g * p * a.data ** (p - 1.0))

        return self._make(out_data, (a,), bw)

    def exp(self) -> "Tensor":
        a = self
        out_data = np.exp(a.data)

        def bw(g):
            a._accum(g * out_data)

        return self._make(out_data, (a,), bw)

    def log(self) -> "Tensor":
        a = self

        def bw(g):
            a._accum(g / a.data)

        return self._make(np.log(a.data), (a,), bw)

    def abs(self) -> "Tensor":
        a = self

        def bw(g):
            a._accum(g * np.sign(a.data))

        return self._make(np.abs(a.data), (a,), bw)

    def tanh(self) -> "Tensor":
        a = self
        out_data = np.tanh(a.data)

        def bw(g):
            a._accum(g * (1.0 - out_data * out_data))

        return self._make(out_data, (a,), bw)

    # -- shape ops ------------------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        a = self
        old = a.data.shape

        def bw(g):
            a._accum(g.reshape(old))

        return self._make(a.data.reshape(shape), (a,), bw)

    def transpose(self, *axes) -> "Tensor":
        a = self
        inv = np.argsort(axes)

        def bw(g):
            a._accum(g.transpose(inv))

        return self._make(a.data.transpose(axes), (a,), bw)

    def __getitem__(self, idx) -> "Tensor":
        a = self
        basic = _is_basic_index(idx)

        def bw(g):
            full = np.zeros_like(a.data)
            if basic:       # ints and slices select each entry at most once
                full[idx] += g
            else:           # an index array may repeat an entry
                np.add.at(full, idx, g)
            a._accum(full)

        return self._make(a.data[idx], (a,), bw)

    # -- reductions -----------------------------------------------------------

    def sum(self, axis=None, keepdims=False) -> "Tensor":
        a = self

        def bw(g):
            if axis is None:
                a._accum(np.broadcast_to(g, a.data.shape).copy())
            else:
                gg = g if keepdims else np.expand_dims(g, axis)
                a._accum(np.broadcast_to(gg, a.data.shape).copy())

        return self._make(a.data.sum(axis=axis, keepdims=keepdims), (a,), bw)

    def mean(self, axis=None, keepdims=False) -> "Tensor":
        if axis is None:
            n = self.data.size
        else:
            n = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    # -- linear algebra -------------------------------------------------------

    def __matmul__(self, other):
        other = Tensor._lift(other)
        a, b = self, other
        if a.data.ndim < 1 or b.data.ndim < 1:
            raise ShapeError(f"matmul needs >=1-d operands, got {a.data.shape} and {b.data.shape}")
        if a.data.shape[-1] != b.data.shape[-2 if b.data.ndim > 1 else 0]:
            raise ShapeError(f"matmul inner dimensions disagree: {a.data.shape} x {b.data.shape}")

        def bw(g):
            if a.requires_grad or a._backward:
                ga = g @ np.swapaxes(b.data, -1, -2) if b.data.ndim > 1 else np.outer(g, b.data).reshape(a.data.shape)
                a._accum(_unbroadcast(ga, a.data.shape))
            if b.requires_grad or b._backward:
                gb = np.swapaxes(a.data, -1, -2) @ g if a.data.ndim > 1 else np.outer(a.data, g).reshape(b.data.shape)
                b._accum(_unbroadcast(gb, b.data.shape))

        return self._make(a.data @ b.data, (a, b), bw)

    # -- backward pass --------------------------------------------------------

    def _accum(self, g: np.ndarray):
        # Interior grads are dropped after ``backward`` and never written in
        # place, so they may alias ``g``; a leaf's grad is its own array.
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64) if self._backward is None else g
        else:
            self.grad = self.grad + g

    def backward(self):
        if self.data.size != 1:
            raise ShapeError(f"backward() requires a scalar root, got shape {self.data.shape}")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
        # intermediate grads are not part of the contract; keep leaf grads only
        for node in topo:
            if node._backward is not None and node is not self:
                node.grad = None


# -- free-function ops --------------------------------------------------------


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [Tensor._lift(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)
    out_data = np.concatenate([t.data for t in tensors], axis=axis)

    def bw(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad or t._backward:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                t._accum(g[tuple(sl)])

    return Tensor._make(out_data, tensors, bw)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [Tensor._lift(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def bw(g):
        slabs = np.moveaxis(g, axis, 0)
        for t, slab in zip(tensors, slabs):
            if t.requires_grad or t._backward:
                t._accum(slab)

    return Tensor._make(out_data, tensors, bw)


def _log_softmax_data(x: np.ndarray, axis: int, op: str) -> np.ndarray:
    if not np.all(np.isfinite(x)):
        raise NumericError(f"{op} requires finite input")
    m = x.max(axis=axis, keepdims=True)
    shifted = x - m
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis`` (max-subtraction)."""
    x = Tensor._lift(x)
    out_data = _log_softmax_data(x.data, axis, "log_softmax")

    return x._make(out_data, (x,),
                   lambda g: x._accum(_log_softmax_grad(g, out_data, axis)))


def _log_softmax_grad(g: np.ndarray, out: np.ndarray, axis: int) -> np.ndarray:
    """Input grad of ``out = log_softmax(x)`` given the output grad ``g``."""
    return g - np.exp(out) * g.sum(axis=axis, keepdims=True)


def _softmax_grad(g: np.ndarray, out: np.ndarray, axis: int) -> np.ndarray:
    """Input grad of ``out = softmax(x)`` given the output grad ``g``."""
    gl = g * out
    return gl - out * gl.sum(axis=axis, keepdims=True)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """``exp(log_softmax(x))`` as one node; its backward reuses the output."""
    x = Tensor._lift(x)
    out_data = np.exp(_log_softmax_data(x.data, axis, "softmax"))
    return x._make(out_data, (x,),
                   lambda g: x._accum(_softmax_grad(g, out_data, axis)))


NORM_EPS = 1e-12


def _normalize_rows_data(x: np.ndarray) -> tuple[np.ndarray, tuple]:
    """``x`` over its last axis scaled to unit length, ``x * (sum(x*x) +
    NORM_EPS) ** -0.5``, and what its backward needs; the composite chain's
    expressions in its order."""
    se = (x * x).sum(axis=-1, keepdims=True) + NORM_EPS
    r = se ** -0.5
    return x * r, (se, r)


def _normalize_rows_grad(g: np.ndarray, x: np.ndarray, saved: tuple
                         ) -> tuple[np.ndarray, np.ndarray]:
    """The input grad of a ``_normalize_rows_data`` output as the chain's
    two terms: ``g * r`` from the outer product, and ``t``, which each
    factor of ``x * x`` adds once (see ``_accum_normalize_terms``)."""
    se, r = saved
    gr = _unbroadcast(g * x, r.shape)
    return g * r, gr * -0.5 * se ** -1.5 * x


def _accum_normalize_terms(x: Tensor, terms: tuple[np.ndarray, np.ndarray]):
    """Accumulate ``_normalize_rows_grad``'s terms into ``x`` as the chain
    does: ``g * r``, then ``t`` twice."""
    gx, t = terms
    x._accum(gx)
    x._accum(t)
    x._accum(t)


def normalize_rows(x: Tensor) -> Tensor:
    """L2-normalize along the last axis (eps ``NORM_EPS`` under the square
    root), as one node with the composite chain's bits."""
    x = Tensor._lift(x)
    out_data, saved = _normalize_rows_data(x.data)
    return Tensor._make(out_data, (x,), lambda g: _accum_normalize_terms(
        x, _normalize_rows_grad(g, x.data, saved)))


LN_EPS = 1e-5


def _tracked(t: Tensor) -> bool:
    return t.requires_grad or t._backward is not None


def _layer_norm_data(x: np.ndarray, gain: np.ndarray, bias: np.ndarray
                     ) -> tuple[np.ndarray, tuple]:
    """LayerNorm over the last axis with eps ``LN_EPS``: the output, and
    what its backward needs.

    The expressions are those of the composite ``mean``/``sub``/``mul``/
    ``pow`` chain, in its order, so values and gradients equal that chain's
    bit for bit.
    """
    k = np.asarray(1.0 / x.shape[-1])
    mu = x.sum(axis=-1, keepdims=True) * k
    c = x + -mu
    sq = c * c
    var = sq.sum(axis=-1, keepdims=True) * k
    ve = var + LN_EPS
    r = ve ** -0.5
    cr = np.multiply(c, r, out=sq)      # sq is dead: reuse its buffer
    out = cr * gain
    out += bias
    return out, (k, c, ve, r)


def _layer_norm_grad(g: np.ndarray, gain: Tensor, bias: Tensor, saved: tuple,
                     want_x: bool):
    """Accumulate the affine grads of a ``_layer_norm_data`` output. Return
    the input grad as its two terms, centred part then mean part, which the
    chain accumulates one after the other; None unless ``want_x``."""
    k, c, ve, r = saved
    if _tracked(bias):
        bias._accum(_unbroadcast(g, bias.data.shape))
    if _tracked(gain):
        # ``c * r`` is recomputed, not kept from the forward: one multiply
        # here costs less than one more kept (..., D) array per LayerNorm
        gain._accum(_unbroadcast(g * (c * r), gain.data.shape))
    if not want_x:
        return None
    gc = g * gain.data
    t = gc * c
    gsq = _unbroadcast(t, r.shape) * -0.5 * ve ** -1.5 * k
    gc *= r
    np.multiply(gsq, c, out=t)
    gc += t                         # the chain adds gsq * c once per factor
    gc += t
    mean = -_unbroadcast(gc, r.shape)
    mean *= k
    return gc, np.broadcast_to(mean, c.shape)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Per-row standardization over the last axis followed by affine, with
    eps ``LN_EPS``, as one node with the composite chain's bits (see
    ``_layer_norm_data``)."""
    x, gain, bias = Tensor._lift(x), Tensor._lift(gain), Tensor._lift(bias)
    out_data, saved = _layer_norm_data(x.data, gain.data, bias.data)

    def bw(g):
        terms = _layer_norm_grad(g, gain, bias, saved, _tracked(x))
        if terms is not None:
            x._accum(terms[0])
            x._accum(terms[1])

    return Tensor._make(out_data, (x, gain, bias), bw)


def transformer_block(x: Tensor, w: Mapping[str, Tensor], n_heads: int,
                      rows: slice | None = None) -> Tensor:
    """One pre-LN transformer block over a (B, S, D) batch, as one node.

    ``a = x + attention(LN1(x))`` with ``n_heads`` heads, then
    ``a + tanh(LN2(a) @ w1 + b1) @ w2 + b2``. ``w`` maps wq, wk, wv, wo, w1,
    b1, w2, b2 (frozen: they get no grad) and ln1_g, ln1_b, ln2_g, ln2_b to
    tensors. The node's parents are ``x`` and the four LayerNorm affines;
    both LayerNorms use eps ``LN_EPS``.

    ``rows``, if given, selects two adjacent query rows and the output is
    (B, 2, D): those rows of the full block's output. LN1, K and V still
    run over all S rows; the queries, the attention mix, the residual, LN2
    and the feed-forward run on the two rows only. A tower's last block
    uses this, since only its pooled row reaches the feature. Two rows, not
    one, because BLAS picks its kernel by row count: a row's bits are the
    same in a gemm of 2 to 37 rows, but not in a 1-row gemm.

    Forward and backward evaluate the numpy expressions of the op-by-op
    chain (matmul, reshape, transpose, ``*``, ``softmax``, ``+``, ``tanh``,
    ``layer_norm`` nodes) in the chain's order, so the output and every
    grad equal the chain's bit for bit. In particular each residual's grad
    accumulates as ``(g + centred) + mean`` and LN1's output grad as
    ``(q + k) + v``, as the tape's reverse topological order adds them. In
    the two-row form the rows' q part and residual grad are scattered into
    zero (B, S, D) arrays before those sums, and ``g @ w2.T`` runs on the
    zero-padded (B, S, D) output grad, then keeps the two rows: with
    numpy's bundled OpenBLAS a 2-row product there gives other bits than
    the full pass's at S >= 19. So, given a grad on the pooled row alone,
    every grad equals the full block's.
    """
    x = Tensor._lift(x)
    ln1_g, ln1_b, ln2_g, ln2_b = (w[k] for k in ("ln1_g", "ln1_b",
                                                  "ln2_g", "ln2_b"))
    wq, wk, wv, wo, w1, w2 = (w[k].data for k in ("wq", "wk", "wv", "wo",
                                                  "w1", "w2"))
    b, s, d = x.data.shape
    if rows is None:
        rows, n = slice(None), s
    else:
        if s < 2:
            raise ShapeError(f"a two-row block needs S >= 2, got S = {s}")
        start, stop, step = rows.indices(s)
        if step != 1 or stop - start != 2:
            raise ShapeError(f"rows must select two adjacent rows of S = {s}, "
                             f"got {rows}")
        n = 2
    h, dh = n_heads, d // n_heads
    scale = np.asarray(1.0 / math.sqrt(dh))

    def heads(t):
        return t.reshape(*t.shape[:2], h, dh).transpose(0, 2, 1, 3)

    def merge(t):
        return t.transpose(0, 2, 1, 3).reshape(b, t.shape[2], d)

    def pad(t):
        """The rows' (B, n, D) grad as the full pass's (B, S, D) one."""
        if n == s:
            return t
        full = np.zeros((b, s, t.shape[-1]))
        full[:, rows] = t
        return full

    # without a tape no backward reads the attention half, so its arrays
    # are dropped as soon as they are dead: a 63-image vision chunk then
    # peaks at 2.4 MB instead of 4.0 MB
    taped = _grad_enabled
    ln1, ln1_saved = _layer_norm_data(x.data, ln1_g.data, ln1_b.data)
    q, k, v = heads(ln1[:, rows] @ wq), heads(ln1 @ wk), heads(ln1 @ wv)
    if not taped:
        del ln1, ln1_saved
    kt = k.transpose(0, 1, 3, 2)
    p = np.exp(_log_softmax_data((q @ kt) * scale, -1, "softmax"))
    a = x.data[:, rows] + merge(p @ v) @ wo
    if not taped:
        del q, k, kt, p, v
    ln2, ln2_saved = _layer_norm_data(a, ln2_g.data, ln2_b.data)
    act = ln2 @ w1
    act += w["b1"].data
    np.tanh(act, out=act)
    out_data = act @ w2
    out_data += w["b2"].data
    out_data += a                   # a + (act @ w2 + b2)

    def bw(g):
        want_x = _tracked(x)
        want_a = want_x or _tracked(ln1_g) or _tracked(ln1_b)
        # feed-forward half, down to the grad of ``a``
        gh = (pad(g) @ np.swapaxes(w2, -1, -2))[:, rows]
        dact = act * act
        np.subtract(1.0, dact, out=dact)
        gh *= dact
        terms = _layer_norm_grad(gh @ np.swapaxes(w1, -1, -2), ln2_g, ln2_b,
                                 ln2_saved, want_a)
        if not want_a:
            return
        ga = g + terms[0]
        ga += terms[1]
        # attention half: mixed values, scores, then q, k, v back to LN1
        gm = (ga @ np.swapaxes(wo, -1, -2)).reshape(b, n, h, dh)
        gm = gm.transpose(0, 2, 1, 3)
        gv = np.swapaxes(p, -1, -2) @ gm
        gs = _softmax_grad(gm @ np.swapaxes(v, -1, -2), p, -1) * scale
        gq = gs @ np.swapaxes(kt, -1, -2)
        gk = (np.swapaxes(q, -1, -2) @ gs).transpose(0, 1, 3, 2)
        gln1 = pad(merge(gq) @ np.swapaxes(wq, -1, -2))
        gln1 += merge(gk) @ np.swapaxes(wk, -1, -2)
        gln1 += merge(gv) @ np.swapaxes(wv, -1, -2)
        terms = _layer_norm_grad(gln1, ln1_g, ln1_b, ln1_saved, want_x)
        if want_x:
            x._accum(pad(ga))
            x._accum(terms[0])
            x._accum(terms[1])

    return Tensor._make(out_data, (x, ln1_g, ln1_b, ln2_g, ln2_b),
                        bw if taped else None)


# -- gradient checking --------------------------------------------------------


def grad_check(f: Callable[..., Tensor], inputs: Sequence[Tensor],
               step: float = 1e-4, tolerance: float = 1e-4) -> dict:
    """Compare analytic gradients of scalar ``f`` against central differences.

    Returns a report: per-input max relative error, overall max, pass flag.
    Relative error is |a - n| / (1 + |n|) elementwise.
    """
    if not (0.0 < step <= 1e-2):
        raise ValueError("step must lie in (0, 1e-2]")
    inputs = list(inputs)
    for t in inputs:
        t.zero_grad()
    out = f(*inputs)
    if out.data.size != 1:
        raise ShapeError("grad_check requires a scalar-valued function")
    out.backward()
    analytic = [np.zeros_like(t.data) if t.grad is None else t.grad.copy()
                for t in inputs]

    per_input = []
    for k, t in enumerate(inputs):
        numeric = np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        nflat = numeric.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            with no_grad():
                hi = f(*inputs).item()
            flat[i] = orig - step
            with no_grad():
                lo = f(*inputs).item()
            flat[i] = orig
            nflat[i] = (hi - lo) / (2.0 * step)
        rel = np.abs(analytic[k] - numeric) / (1.0 + np.abs(numeric))
        per_input.append({
            "analytic": analytic[k],
            "numeric": numeric,
            "max_rel_error": float(rel.max()) if rel.size else 0.0,
        })
    max_rel = max((r["max_rel_error"] for r in per_input), default=0.0)
    return {
        "per_input": per_input,
        "max_rel_error": max_rel,
        "passed": max_rel < tolerance,
    }
