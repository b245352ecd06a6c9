import ctypes
import platform
from types import SimpleNamespace

import numpy as np
import pytest

import lasp.encoders
from lasp.autodiff import Tensor, concat, layer_norm, transformer_block
from lasp.encoders import (EncoderConfig, TextEncoder, VisionEncoder,
                           trainable_parameters)
from lasp.errors import ConfigError, DataError
from lasp.prompts import init_prompts
from test_trainer import tiny_data, tiny_setup


def test_config_validation():
    with pytest.raises(ConfigError):
        EncoderConfig(d_tok=10, n_heads=4)
    with pytest.raises(ConfigError, match="n_layers must be >= 1"):
        EncoderConfig(n_layers=0)


def test_text_encoder_shapes_and_determinism(small_enc):
    te1, te2 = TextEncoder(small_enc), TextEncoder(small_enc)
    assert np.array_equal(te1.embedding, te2.embedding)
    x = Tensor(te1.embed_ids([1, 5, 9, 2])[None])
    out1 = te1.encode_batch(x)
    out2 = te2.encode_batch(Tensor(te2.embed_ids([1, 5, 9, 2])[None]))
    assert out1.shape == (1, small_enc.d)
    assert np.array_equal(out1.data, out2.data)


def test_text_encoder_pools_last_position(small_enc):
    """Each row's pooled feature comes from its own sequence only: a row of
    a batch equals the same sequence encoded alone, and changing a
    non-final token changes it (attention mixes positions)."""
    te = TextEncoder(small_enc)
    seqs = te.embed_ids([1, 4, 7, 2, 1, 5, 7, 2]).reshape(2, 4, small_enc.d_tok)
    batch = te.encode_batch(Tensor(seqs)).data
    for i in range(2):
        alone = te.encode_batch(Tensor(seqs[i:i + 1])).data[0]
        # batch matmul may reduce in a different order; equality is numeric
        assert np.allclose(batch[i], alone, rtol=0, atol=1e-12)
    assert not np.allclose(batch[0], batch[1])


def test_text_encoder_rejects_overlong(small_enc):
    te = TextEncoder(small_enc)
    with pytest.raises(DataError):
        te.encode_batch(Tensor(np.zeros((1, small_enc.max_len + 1,
                                         small_enc.d_tok))))
    with pytest.raises(DataError):
        te.encode_batch(Tensor(np.zeros((4, small_enc.d_tok))))
    with pytest.raises(DataError, match="sequence length 1"):
        te.encode_batch(Tensor(np.zeros((4, 1, small_enc.d_tok))))
    with pytest.raises(DataError):
        te.encode_batch(Tensor(np.zeros((2, 1, small_enc.max_len + 1,
                                         small_enc.d_tok))))


def test_embed_class_name_splits_words(small_enc):
    te = TextEncoder(small_enc)
    two = te.embed_class_name("palm_tree")
    assert two.shape == (2, small_enc.d_tok)
    with pytest.raises(DataError):
        te.embed_class_name("   ")


def test_vision_encoder_shapes(small_enc):
    ve = VisionEncoder(small_enc)
    imgs = np.random.default_rng(0).random((2, 16, 16, 3))
    out = ve.encode_batch(Tensor(imgs))
    assert out.shape == (2, small_enc.d)
    for i in range(2):
        alone = ve.encode_batch(Tensor(imgs[i:i + 1])).data[0]
        # batch matmul may reduce in a different order; equality is numeric
        assert np.allclose(alone, out.data[i], rtol=0, atol=1e-12)


def test_vision_encoder_rejects_bad_dims(small_enc):
    ve = VisionEncoder(small_enc)
    for hwc in [(15, 15, 3), (8, 8, 3), (32, 32, 3), (16, 16, 1)]:
        with pytest.raises(DataError, match=r"the encoder takes \(16, 16, 3\)"):
            ve.encode_batch(Tensor(np.zeros((1, *hwc))))
    with pytest.raises(DataError):
        ve.encode_batch(Tensor(np.zeros((16, 16, 3))))


def test_ln_trainable_toggle(small_enc):
    ve = VisionEncoder(small_enc)
    assert all(not t.requires_grad for t in ve.trunk.ln_params())
    ve.set_ln_trainable(True)
    assert all(t.requires_grad for t in ve.trunk.ln_params())
    ve.set_ln_trainable(False)
    assert all(not t.requires_grad for t in ve.trunk.ln_params())


def test_trainable_parameters_scope(small_enc):
    prompts = init_prompts(2, 3, small_enc.d_tok, small_enc.d, 0)
    ve = VisionEncoder(small_enc)
    off = trainable_parameters(prompts, ve, ln_finetune=False)
    assert set(off) == {"prompts.vectors", "prompts.bias"}
    on = trainable_parameters(prompts, ve, ln_finetune=True)
    extra = set(on) - set(off)
    assert extra and all(k.startswith("vision.") and ("ln" in k) for k in extra)
    # checkpoints store the affines under these names, in this order
    assert list(on)[2:] == [f"vision.layer{i}.{k}"
                            for i in range(small_enc.n_layers)
                            for k in ("ln1_g", "ln1_b", "ln2_g", "ln2_b")
                            ] + ["vision.ln_f_g", "vision.ln_f_b"]
    assert all(a is b for a, b in zip(list(on.values())[2:],
                                       ve.trunk.ln_params(), strict=True))


@pytest.mark.parametrize("tower", [TextEncoder, VisionEncoder])
def test_fixed_weights_are_read_only(small_enc, tower):
    # a tower's features then depend on its config and, in the vision
    # tower, the LayerNorm affines alone
    enc = tower(small_enc)
    ln = enc.trunk.ln_params() if tower is VisionEncoder else []
    writeable = 0
    for t in enc.named_params().values():
        if any(t is a for a in ln):
            t.data[...] = t.data
            writeable += 1
        else:
            with pytest.raises(ValueError, match="read-only"):
                t.data[...] = 0.0
    assert writeable == len(ln)
    assert tower is TextEncoder or writeable == 2 + 4 * small_enc.n_layers


def full_stack(trunk, x):
    """The trunk with every block run on all rows."""
    for lyr in trunk.layers:
        x = transformer_block(x, lyr, trunk.cfg.n_heads)
    return layer_norm(x, trunk.ln_f_g, trunk.ln_f_b)


def text_reference(enc, x):
    """Text features pooled at the end token of the full stack's output."""
    *lead, s, d = x.shape
    h = full_stack(enc.trunk, x.reshape(-1, s, d) + enc.pos[:s])
    return h[:, s - 1, :].reshape(*lead, d) @ enc.proj


def vision_reference(enc, images):
    """Vision features pooled at the class token of the full stack's output."""
    b, d = images.shape[0], enc.cfg.d_tok
    cls = Tensor(np.broadcast_to(enc.cls, (b, 1, d)).copy())
    tokens = enc._patchify(images) @ enc.w_patch
    h = full_stack(enc.trunk, concat([cls, tokens], axis=1) + enc.pos)
    return h[:, 0, :] @ enc.proj


def features_and_grads(encode, data, params=()):
    """Features of ``data`` and the grads of it and ``params``."""
    x = Tensor(data, requires_grad=True)
    for t in params:
        t.zero_grad()
    feats = encode(x)
    r = np.random.default_rng(1).standard_normal(feats.shape)
    (feats.tanh() * r).sum().backward()
    return [feats.data, x.grad] + [t.grad for t in params]


@pytest.mark.parametrize("shape", [(1, 2), (5, 7), (3, 30, 7), (90, 19),
                                   (2, 32)])
def test_text_features_equal_the_full_stack_bitwise(shape):
    enc = TextEncoder(EncoderConfig())
    data = np.random.default_rng(0).standard_normal((*shape, enc.cfg.d_tok))
    got = features_and_grads(enc.encode_batch, data)
    want = features_and_grads(lambda x: text_reference(enc, x), data)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("batch", [1, 2, 17, 65])
def test_vision_features_equal_the_full_stack_bitwise(batch):
    enc = VisionEncoder(EncoderConfig())
    enc.set_ln_trainable(True)
    images = np.random.default_rng(batch).random((batch, 16, 16, 3))
    ln = enc.trunk.ln_params()
    got = features_and_grads(enc.encode_batch, images, ln)
    want = features_and_grads(lambda x: vision_reference(enc, x), images, ln)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_fit_leaves_another_libc_alone(small_enc, monkeypatch):
    def no_native_call(*a, **k):
        raise AssertionError("touched the C library off glibc")
    monkeypatch.setattr(platform, "libc_ver", lambda *a, **k: ("musl", "1.2"))
    monkeypatch.setattr(ctypes, "CDLL", no_native_call)
    lasp.encoders._keep_freed_heap()
    model, trainer, _ = tiny_setup(small_enc, epochs=2)
    before = model.prompt_set.vectors.data.copy()
    log = trainer.fit(tiny_data())
    assert len(log.rows) == 6
    assert not np.array_equal(before, model.prompt_set.vectors.data)


def test_a_refused_heap_setting_warns(monkeypatch):
    calls = []

    def refuse(param, value):
        calls.append((param, value))
        return 0
    monkeypatch.setattr(platform, "libc_ver", lambda *a, **k: ("glibc", "2.36"))
    monkeypatch.setattr(ctypes, "CDLL", lambda name: SimpleNamespace(
        mallopt=refuse))
    with pytest.warns(RuntimeWarning, match="refused mallopt") as caught:
        lasp.encoders._keep_freed_heap()
    assert calls == [(-1, 256 << 20), (-3, 4 << 20)]
    assert len(caught) == 2
