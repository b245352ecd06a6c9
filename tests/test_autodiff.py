import contextlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lasp.autodiff import (NumericError, ShapeError, Tensor, concat,
                           grad_check, layer_norm, log_softmax, no_grad,
                           normalize_rows, softmax, stack, transformer_block)
from lasp.data import _class_word_pool
from lasp.encoders import (IMAGE_SHAPE, TAU, EncoderConfig, VisionEncoder,
                           _Transformer, pool_project)
from lasp.losses import (combined_loss, grouped_cosine_scores,
                         grouped_tt_loss, template_averaged_probs, unit_rows,
                         vl_loss)
from lasp.model import PromptedClip
from lasp.prompts import (TemplateBank, assemble_learnable_prompt,
                          init_prompts, load_template_bank, split_templates)

arrays = st.integers(0, 2**32 - 1).map(
    lambda s: np.random.default_rng(s).standard_normal((3, 4)))


def rand(shape, seed=0, scale=1.0):
    return Tensor(scale * np.random.default_rng(seed).standard_normal(shape),
                  requires_grad=True)


# -- elementwise / reduction gradients -----------------------------------------


@pytest.mark.parametrize("f", [
    lambda x: (x * x).sum(),
    lambda x: (x + 2.0 * x).mean(),
    lambda x: (x.tanh() * x).sum(),
    lambda x: x.exp().sum(),
    lambda x: (x * x + 1.0).log().sum(),
    lambda x: x.abs().sum(),
    lambda x: x.pow(3.0).mean(),
    lambda x: x.reshape(12).sum(),
    lambda x: x.transpose(1, 0)[1].sum(),
    lambda x: x[:, 1:3].sum(),
    lambda x: (x.sum(axis=0) * x.mean(axis=1).sum()).sum(),
])
def test_gradients_elementwise(f):
    report = grad_check(f, [rand((3, 4), seed=7)])
    assert report["passed"], report["max_rel_error"]


@pytest.mark.parametrize("seed", range(5))
def test_gradients_matmul_chain(seed):
    a = rand((3, 4), seed)
    b = rand((4, 2), seed + 100)

    def f(a, b):
        return ((a @ b).tanh() @ b.transpose(1, 0)).sum()

    report = grad_check(f, [a, b])
    assert report["passed"], report["max_rel_error"]


def test_gradients_softmax_layernorm():
    x = rand((2, 5), seed=3)
    g = rand((5,), seed=4)
    b = rand((5,), seed=5)

    def f(x, g, b):
        return (softmax(layer_norm(x, g, b), axis=-1) * x).sum()

    report = grad_check(f, [x, g, b])
    assert report["passed"], report["max_rel_error"]


def test_gradients_layer_norm():
    report = grad_check(lambda x, g, b: layer_norm(x, g, b).pow(3.0).sum(),
                        [rand((2, 3, 5), seed=6), rand((5,), seed=7),
                         rand((5,), seed=8)])
    assert report["passed"], report["max_rel_error"]


def test_gradients_softmax():
    w = np.random.default_rng(9).standard_normal((2, 3, 5))
    report = grad_check(lambda x: (softmax(x, axis=-1) * w).sum(),
                        [rand((2, 3, 5), seed=10)])
    assert report["passed"], report["max_rel_error"]


# The chains the fused ops replace, built from the elementary ops.

def composite_layer_norm(x, gain, bias, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return centered * (var + eps).pow(-0.5) * gain + bias


def composite_softmax(x, axis=-1):
    return log_softmax(x, axis=axis).exp()


def composite_normalize_rows(x, eps=1e-12):
    sq = (x * x).sum(axis=-1, keepdims=True)
    return x * (sq + eps).pow(-0.5)


def composite_vl_loss(rows, f, labels, tau):
    cos = (composite_normalize_rows(f)
           @ composite_normalize_rows(rows).transpose(0, 2, 1))
    logp = log_softmax(cos.mean(axis=0) * (1.0 / tau), axis=-1)
    onehot = np.zeros(logp.shape)
    onehot[np.arange(labels.size), labels] = 1.0
    return -(logp * Tensor(onehot)).sum() * (1.0 / labels.size)


def composite_grouped_tt_loss(anchors, rows, bank, tau):
    c_base = rows.shape[1]
    eye = Tensor(np.eye(c_base, anchors.shape[1]))
    total = None
    for g in range(bank.groups):
        an = unit_rows(anchors[bank.indices_of_group(g)])
        cos = composite_normalize_rows(rows[g]) @ Tensor(an).transpose(0, 2, 1)
        probs = composite_softmax(cos * (1.0 / tau)).mean(axis=0)
        part = -(probs.log() * eye).sum() * (1.0 / c_base)
        total = part if total is None else total + part
    return total


def composite_class_rows(model, names):
    te, vectors = model.text_encoder, model.prompt_set.vectors
    frames, restore = te.name_frames(names)
    outs = []
    for frame in frames:
        batch = stack([concat([frame[:, :1], stack([vectors[g]] * len(frame)),
                               frame[:, 1:]], axis=1)
                       for g in range(model.prompt_set.groups)])
        *lead, s, d = batch.shape
        h = te.trunk.forward(batch.reshape(-1, s, d) + te.pos[:s],
                             slice(s - 2, s))
        outs.append(h[:, 1, :].reshape(*lead, d) @ te.proj)
    return concat(outs, axis=1)[:, restore]


def composite_encode_images(ve, images):
    b = images.shape[0]
    cls = Tensor(np.broadcast_to(ve.cls, (b, 1, ve.cfg.d_tok)).copy())
    x = concat([cls, ve._patchify(images) @ ve.w_patch], axis=1) + ve.pos
    return ve.trunk.forward(x, slice(0, 2))[:, 0, :] @ ve.proj


def same_bits(got, want) -> bool:
    return (got is None and want is None) or (
        got is not None and want is not None and got.shape == want.shape
        and got.tobytes() == want.tobytes())


def fused_and_composite(fused, composite, shape):
    """Output and input grads of ``fused`` and of ``composite`` on an
    interior input that also feeds a residual add."""
    rng = np.random.default_rng(0)
    data = [rng.standard_normal(shape), rng.standard_normal(shape[-1]),
            rng.standard_normal(shape[-1])]
    w = rng.standard_normal(shape)
    results = []
    for op in (fused, composite):
        x, g, b = (Tensor(d.copy(), requires_grad=True) for d in data)
        h = x * 1.5                      # interior input, also fed forward
        out = op(h, g, b)
        ((h + out).tanh() * w).sum().backward()   # residual add
        results.append([out.data, x.grad, g.grad, b.grad])
    return results


def fused_normalize_rows(x, g, b):
    return normalize_rows(x) * g + b


def composite_normalize_rows_affine(x, g, b):
    return composite_normalize_rows(x) * g + b


@pytest.mark.parametrize("fused, composite", [
    (lambda x, g, b: layer_norm(x, g, b), composite_layer_norm),
    (lambda x, g, b: softmax(x * g + b), lambda x, g, b: composite_softmax(x * g + b)),
    (fused_normalize_rows, composite_normalize_rows_affine),
])
def test_fused_op_equals_composite_chain_bitwise(fused, composite):
    fused_out, chain = fused_and_composite(fused, composite, (3, 4, 6))
    for got, want in zip(fused_out, chain):
        assert same_bits(got, want)


# train-text's (G, C, d) class rows and train-vision's (B, d) features
@pytest.mark.parametrize("shape", [(3, 30, 32), (64, 32)])
def test_fused_normalize_rows_equals_composite_chain_at_step_shapes_bitwise(
        shape):
    fused, chain = fused_and_composite(fused_normalize_rows,
                                       composite_normalize_rows_affine, shape)
    for got, want in zip(fused, chain):
        assert same_bits(got, want)


# (G, base names, virtual names, batch, features tracked): a train-text and
# a train-vision step's loss heads
HEAD_SHAPES = [(3, 10, 20, 16, False), (1, 10, 0, 64, True)]


@pytest.mark.parametrize("heads", ["vl", "tt", "both"])
@pytest.mark.parametrize("groups, nb, nv, batch, f_tracked", HEAD_SHAPES)
def test_fused_loss_heads_equal_composite_chains_bitwise(heads, groups, nb, nv,
                                                         batch, f_tracked):
    # Both heads read the raw rows, the VL head after the bias shift, so their
    # grads meet in the raw rows' node as they do in a training step.
    rng = np.random.default_rng(groups)
    d, c = 32, nb + nv
    bank = TemplateBank([f"t {i} {{}}" for i in range(6)],
                        [i % groups for i in range(6)])
    anchors = rng.standard_normal((6, c, d))
    labels = rng.integers(0, nb, batch)
    data = [rng.standard_normal((groups, c, d)), 0.3 * rng.standard_normal(d),
            5.0 * rng.standard_normal((batch, d))]
    results = []
    for vl, tt in ((vl_loss, grouped_tt_loss),
                   (composite_vl_loss, composite_grouped_tt_loss)):
        leaf, bias, f = (Tensor(x.copy(), requires_grad=True) for x in data)
        f.requires_grad = f_tracked
        raw = leaf * 1.5                 # interior, as the text tower's rows
        # the trainer slices off the virtual rows only if there are any
        base = raw if vl is vl_loss and nb == c else raw[:, :nb, :]
        zero = Tensor(0.0)
        l_vl = vl(base + bias, f * 1.0, labels, TAU) if heads != "tt" else zero
        l_tt = tt(anchors, raw, bank, TAU) if heads != "vl" else zero
        total = combined_loss(l_vl, l_tt, 1.0, 20.0)
        total.backward()
        results.append([l_vl.data, l_tt.data, total.data, leaf.grad,
                        bias.grad, f.grad])
    for got, want in zip(*results):
        assert same_bits(got, want)


def class_row_runs(groups, names):
    """Class rows and the prompt-vector grad of the fused and the composite
    glue, given the same weighted-sum loss."""
    enc = EncoderConfig()
    bank = split_templates(load_template_bank("6"), groups, 0)
    prompts = init_prompts(groups, 4, enc.d_tok, enc.d, 0)
    model = PromptedClip(enc, prompts, bank)
    w = np.random.default_rng(groups).standard_normal((groups, len(names),
                                                       enc.d))
    results = []
    for rows_of in (lambda: model.class_rows(names, with_bias=False),
                    lambda: composite_class_rows(model, names)):
        prompts.vectors.zero_grad()
        rows = rows_of()
        (rows.tanh() * w).sum().backward()
        results.append([rows.data, prompts.vectors.grad])
    return results


@pytest.mark.parametrize("groups, names", [
    (3, _class_word_pool()[:30]),   # train-text: 10 base + 20 virtual names
    (1, _class_word_pool()[:10]),   # train-vision
    # one-, two- and three-token names, interleaved: three length buckets,
    # then a concat and a reorder
    (3, ["oak", "palm tree", "rocket", "big red fern", "maple leaf", "moss"]),
])
def test_fused_class_row_glue_equals_composite_chain_bitwise(groups, names):
    fused, chain = class_row_runs(groups, names)
    assert all(same_bits(a, b) for a, b in zip(fused, chain))


def test_fused_image_pooling_equals_composite_chain_bitwise():
    ve = VisionEncoder(EncoderConfig())
    ve.set_ln_trainable(True)
    ln = ve.trunk.ln_params()
    rng = np.random.default_rng(0)
    images, w = rng.random((64, *IMAGE_SHAPE)), rng.standard_normal((64, 32))
    results = []
    for encode in (ve.encode_batch, lambda x: composite_encode_images(ve, x)):
        for t in ln:
            t.zero_grad()
        x = Tensor(images.copy(), requires_grad=True)
        out = encode(x)
        (out.tanh() * w).sum().backward()
        results.append([out.data, x.grad] + [t.grad for t in ln])
    assert all(same_bits(a, b) for a, b in zip(*results))


def rng_array(shape, seed):
    return np.random.default_rng(seed).standard_normal(shape)


# Every fused node outside the block, at the existing tolerance; vl_loss,
# grouped_tt_loss and PromptedClip.class_rows have their own checks.
@pytest.mark.parametrize("f, shapes", [
    (lambda x: (normalize_rows(x) * rng_array((2, 3, 5), 1)).sum(),
     [(2, 3, 5)]),
    (lambda r, f: (grouped_cosine_scores(r, f) * rng_array((2, 3), 1)).sum(),
     [(2, 3, 4), (2, 4)]),
    (lambda x: (template_averaged_probs(rng_array((3, 4, 5), 1), x, 0.5)
                * rng_array((2, 4), 2)).sum(), [(2, 5)]),
    (lambda v: (assemble_learnable_prompt(v, rng_array((3, 3, 4), 1))
                * rng_array((2, 3, 5, 4), 2)).sum(), [(2, 2, 4)]),
    (lambda h: (pool_project(h, 1, (2, 3), Tensor(rng_array((4, 5), 1)))
                * rng_array((2, 3, 5), 2)).sum(), [(6, 2, 4)]),
])
def test_fused_node_grad_check(f, shapes):
    report = grad_check(f, [rand(shape, seed=i + 3)
                            for i, shape in enumerate(shapes)])
    assert report["passed"], report["max_rel_error"]


def test_getitem_repeated_index_accumulates():
    x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    x[[0, 0]].sum().backward()
    assert x.grad.tolist() == [2.0, 0.0, 0.0]


@pytest.mark.parametrize("idx", [1, slice(1, 3), (slice(None), 2),
                                 (Ellipsis, slice(0, 4, 2)),
                                 (1, None, slice(None, None, -1))])
def test_getitem_basic_index_grad_equals_add_at_bitwise(idx):
    x = rand((3, 4, 5), seed=1)
    w = rng_array(x.data[idx].shape, 2)
    (x[idx] * w).sum().backward()
    want = np.zeros_like(x.data)
    np.add.at(want, idx, np.ones_like(w) * w)
    assert same_bits(x.grad, want)


def composite_block(x, w, n_heads):
    """The pre-LN block as the op-by-op chain ``transformer_block`` fuses."""
    b, s, d = x.shape
    h, dh = n_heads, d // n_heads

    def heads(t):
        return t.reshape(b, s, h, dh).transpose(0, 2, 1, 3)

    hdn = layer_norm(x, w["ln1_g"], w["ln1_b"])
    q, k, v = heads(hdn @ w["wq"]), heads(hdn @ w["wk"]), heads(hdn @ w["wv"])
    scores = (q @ k.transpose(0, 1, 3, 2)) * (1.0 / math.sqrt(dh))
    mixed = softmax(scores, axis=-1) @ v
    x = x + mixed.transpose(0, 2, 1, 3).reshape(b, s, d) @ w["wo"]
    hdn = layer_norm(x, w["ln2_g"], w["ln2_b"])
    return x + ((hdn @ w["w1"] + w["b1"]).tanh() @ w["w2"] + w["b2"])


LN_KEYS = ("ln1_g", "ln1_b", "ln2_g", "ln2_b")


def block_weights(d, n_heads, seed, ln_tracked):
    """A frozen encoder block's weights, with LayerNorm affines and FFN
    biases moved off their ones/zeros start so every term is exercised."""
    cfg = EncoderConfig(d_tok=d, d=d, n_layers=1, n_heads=n_heads)
    w = _Transformer(cfg, np.random.default_rng(seed), "t").layers[0]
    rng = np.random.default_rng(seed + 1)
    for key in LN_KEYS + ("b1", "b2"):
        w[key] = Tensor(w[key].data + 0.3 * rng.standard_normal(w[key].shape),
                        requires_grad=ln_tracked and key in LN_KEYS)
    return w


# (shape, input tracked, LN affines tracked): a text-tower batch, a vision
# batch with trainable LN whose input has no grad (block 0), batch 1
@pytest.mark.parametrize("shape, x_tracked, ln_tracked", [
    ((90, 8, 32), True, False),
    ((65, 17, 32), False, True),
    ((1, 8, 32), True, True),
])
def test_fused_block_equals_composite_chain_bitwise(shape, x_tracked,
                                                    ln_tracked):
    rng = np.random.default_rng(1)
    data = rng.standard_normal(shape)
    r = rng.standard_normal(shape)
    results = []
    for block in (transformer_block, composite_block):
        w = block_weights(shape[-1], 2, 0, ln_tracked)
        x = Tensor(data.copy(), requires_grad=x_tracked)
        out = block(x, w, 2)
        (out.tanh() * r).sum().backward()
        results.append([out.data, x.grad] + [w[k].grad for k in LN_KEYS])
    fused, chain = results
    assert (fused[1] is None) == (not x_tracked)
    assert all((g is None) == (not ln_tracked) for g in fused[2:])
    for got, want in zip(fused, chain):
        assert (got is None and want is None) or np.array_equal(got, want)


def test_tape_free_block_drops_its_attention_arrays():
    # without a tape nothing reads them again: the same bits, a lower peak
    data = np.random.default_rng(2).standard_normal((63, 17, 32))
    w = block_weights(32, 2, 0, False)
    outs, peaks = [], []
    for taped in (True, False):
        x = Tensor(data.copy(), requires_grad=True)
        tracemalloc.start()
        with contextlib.nullcontext() if taped else no_grad():
            outs.append(transformer_block(x, w, 2))
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert outs[1].data.tobytes() == outs[0].data.tobytes()
    assert outs[0]._backward is not None and outs[1]._backward is None
    assert peaks[1] < 0.75 * peaks[0]


def blas() -> str:
    """numpy's BLAS, for the messages of tests that pin its bits."""
    dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return dep.get("openblas configuration") or f"{dep['name']} {dep['version']}"


def pooled_grads(shape, rows, pooled, x_tracked, ln_tracked):
    """The pooled row's output, the input grad and the four LN-affine grads
    of the full block and of its two-row form, given a grad on that row
    alone (as the towers' pooling gives)."""
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    data = rng.standard_normal(shape)
    r = rng.standard_normal((shape[0], shape[2]))
    results = []
    for form, row in ((None, pooled), (rows, pooled - rows.start)):
        w = block_weights(shape[-1], 2, 0, ln_tracked)
        x = Tensor(data.copy(), requires_grad=x_tracked)
        out = transformer_block(x, w, 2, rows=form)[:, row]
        (out.tanh() * r).sum().backward()
        results.append([out.data, x.grad] + [w[k].grad for k in LN_KEYS])
    return results


def differing(cases):
    """The cases whose two-row results differ from the full block's."""
    bad = []
    for case in cases:
        full, two = pooled_grads(*case)
        if not all((a is None and b is None) or np.array_equal(a, b)
                    for a, b in zip(full, two)):
            bad.append(case[0])
    return bad


# Text pools its last row (rows S-2:S) and vision its first (rows 0:2). The
# rows' bits equal the full pass's because this BLAS gives a row the same
# bits in any gemm of 2 to 37 rows; a BLAS without that rule fails here.
@pytest.mark.parametrize("batch", [1, 5, 90])
@pytest.mark.parametrize("x_tracked", [True, False])
def test_two_row_block_equals_full_block_text_bitwise(batch, x_tracked):
    bad = differing([((batch, s, 32), slice(s - 2, s), s - 1, x_tracked, False)
                     for s in range(2, 33)])
    assert not bad, f"two-row block differs from the full block at {bad} " \
                    f"with BLAS {blas()}"


def test_two_row_block_equals_full_block_vision_bitwise():
    bad = differing([((b, 17, 32), slice(0, 2), 0, True, True)
                     for b in (1, 2, 3, 17, 64, 65)])
    assert not bad, f"two-row block differs from the full block at {bad} " \
                    f"with BLAS {blas()}"


def test_two_row_block_needs_two_adjacent_rows():
    w = block_weights(4, 2, 0, ln_tracked=False)
    with pytest.raises(ShapeError, match="needs S >= 2, got S = 1"):
        transformer_block(Tensor(np.zeros((3, 1, 4))), w, 2, rows=slice(0, 2))
    for rows in (slice(0, 3), slice(0, 1), slice(0, 4, 2)):
        with pytest.raises(ShapeError, match="two adjacent rows of S = 5"):
            transformer_block(Tensor(np.zeros((3, 5, 4))), w, 2, rows=rows)


def block_grad_check(s, rows):
    """``grad_check`` of a (2, s, 4) block's input and LN affines."""
    w = block_weights(4, 2, 3, ln_tracked=True)
    for key in ("wq", "wk", "wv", "wo", "w1", "w2"):
        w[key] = Tensor(0.5 * w[key].data)      # keeps tanh off saturation
    n = s if rows is None else 2
    r = np.random.default_rng(4).standard_normal((2, n, 4))

    def f(x, *ln):
        return (transformer_block(x, {**w, **dict(zip(LN_KEYS, ln))}, 2,
                                  rows=rows) * r).sum()

    return grad_check(f, [rand((2, s, 4), seed=5)] + [w[k] for k in LN_KEYS])


def test_gradients_transformer_block():
    report = block_grad_check(3, None)
    assert report["passed"], report["max_rel_error"]


# the last two rows, the first two, and a sequence of two, where the two
# rows are the whole sequence
@pytest.mark.parametrize("s, rows", [(3, slice(1, 3)), (3, slice(0, 2)),
                                     (2, slice(0, 2))])
def test_gradients_two_row_transformer_block(s, rows):
    report = block_grad_check(s, rows)
    assert report["passed"], report["max_rel_error"]


def test_leaf_grads_are_writable_and_own_their_memory():
    a, c = rand((2, 3, 4), seed=1), rand((2, 3, 4), seed=4)
    g, b = rand((4,), seed=2), rand((4,), seed=3)
    h = a + c                      # hands a and c the same gradient array
    y = layer_norm(h, g, b) + h.reshape(2, 3, 4)
    (softmax(y) * y).sum().backward()
    leaves = (a, c, g, b)
    for leaf in leaves:
        assert leaf.grad.flags.writeable
        others = [t.data for t in leaves + (h, y)] + [t.grad for t in leaves
                                                      if t is not leaf]
        assert not any(np.shares_memory(leaf.grad, o) for o in others)


def test_gradients_concat_stack_norm():
    a = rand((2, 3), seed=1)
    b = rand((2, 3), seed=2)

    def f(a, b):
        c = concat([a, b], axis=0)
        s = stack([a, b], axis=0)
        row = normalize_rows(c).sum(axis=-1)
        return (row * row).sum() + s.mean()

    report = grad_check(f, [a, b])
    assert report["passed"], report["max_rel_error"]


def test_gradient_broadcasting():
    x = rand((3, 4), seed=11)
    v = rand((4,), seed=12)

    def f(x, v):
        return ((x + v) * v).sum()

    report = grad_check(f, [x, v])
    assert report["passed"], report["max_rel_error"]


# -- softmax properties --------------------------------------------------------


@given(arrays)
@settings(max_examples=30, deadline=None)
def test_softmax_rows_sum_to_one(a):
    p = softmax(Tensor(a), axis=-1).data
    assert np.allclose(p.sum(axis=-1), 1.0, atol=1e-12)
    assert (p >= 0).all()


@given(arrays, st.floats(-50, 50))
@settings(max_examples=30, deadline=None)
def test_log_softmax_shift_invariant(a, shift):
    base = log_softmax(Tensor(a), axis=-1).data
    moved = log_softmax(Tensor(a + shift), axis=-1).data
    assert np.allclose(base, moved, atol=1e-9)


def test_log_softmax_extreme_values_stable():
    x = Tensor(np.array([[1000.0, -1000.0, 0.0]]))
    out = log_softmax(x, axis=-1).data
    assert np.all(np.isfinite(out))
    assert abs(out[0, 0]) < 1e-9


def test_log_softmax_rejects_nan():
    with pytest.raises(NumericError):
        log_softmax(Tensor(np.array([np.nan, 1.0])))


def test_softmax_rejects_nan():
    with pytest.raises(NumericError, match="softmax requires finite input"):
        softmax(Tensor(np.array([np.nan, 1.0])))


# -- normalize ---------------------------------------------------------------


@given(arrays)
@settings(max_examples=30, deadline=None)
def test_normalize_rows_unit_norm(a):
    n = normalize_rows(Tensor(a)).data
    assert np.allclose(np.linalg.norm(n, axis=-1), 1.0, atol=1e-6)


# -- mechanics -----------------------------------------------------------------


def test_no_grad_blocks_graph():
    x = rand((3,), seed=0)
    with no_grad():
        y = (x * x).sum()
    assert y.grad is None
    y.backward()
    assert x.grad is None


def test_backward_accumulates_through_reuse():
    x = Tensor(np.array([2.0]), requires_grad=True)
    y = x * x + x
    y.sum().backward()
    assert x.grad[0] == pytest.approx(5.0)


def test_zero_grad_resets():
    x = rand((3,), seed=9)
    (x * x).sum().backward()
    assert x.grad is not None
    x.zero_grad()
    assert x.grad is None or not x.grad.any()


def test_grad_check_rejects_nonscalar():
    with pytest.raises(ShapeError):
        grad_check(lambda t: t * 2.0, [rand((3,), seed=1)])
