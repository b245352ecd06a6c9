import dataclasses
import math
import warnings
import weakref

import numpy as np
import pytest

from lasp import autodiff
from lasp.autodiff import Tensor, grad_check, no_grad
from lasp.data import SHIFT_TEMPLATE
from lasp.encoders import IMAGE_SHAPE, TextEncoder, text_tower
from lasp.errors import ConfigError, DataError
from lasp.model import IMAGE_CHUNK, PromptedClip
from lasp.prompts import (init_prompts, load_template_bank, render_template,
                          split_templates)
from lasp.tokenizer import END_ID, START_ID
from lasp.trainer import FewShotDataset

# one- and two-token names, so class_rows encodes two length buckets
NAMES = ["oak", "palm tree", "rocket"]


@pytest.fixture
def small_model(small_enc):
    bank = split_templates(load_template_bank("6"), 2, 0)
    prompts = init_prompts(bank.groups, 2, small_enc.d_tok, small_enc.d, 0)
    return PromptedClip(small_enc, prompts, bank)


def encode_alone(te, embeddings: np.ndarray) -> np.ndarray:
    with no_grad():
        return te.encode_batch(Tensor(embeddings[None])).data[0]


def test_class_rows_match_each_sequence_encoded_alone(small_model):
    model = small_model
    te = model.text_encoder
    assert model.prompt_set.groups == 2
    rows = model.class_rows(NAMES, with_bias=False).data
    assert rows.shape == (2, len(NAMES), model.cfg.d)
    for g in range(2):
        for c, name in enumerate(NAMES):
            seq = np.concatenate([te.embed_ids([START_ID]),
                                  model.prompt_set.vectors.data[g],
                                  te.embed_class_name(name),
                                  te.embed_ids([END_ID])])
            np.testing.assert_allclose(rows[g, c], encode_alone(te, seq),
                                       rtol=0, atol=1e-12)


def test_anchors_match_each_template_encoded_alone(small_model):
    te = small_model.text_encoder
    tok = te.tokenizer
    bank = small_model.bank.templates
    # the model's anchors are its text tower's, over its bank
    assert small_model.anchors(NAMES) is te.anchors(bank, NAMES)
    for templates in (bank, [SHIFT_TEMPLATE]):
        anchors = te.anchors(templates, NAMES)
        assert anchors.shape == (len(templates), len(NAMES), te.cfg.d)
        for l, template in enumerate(templates):
            for c, name in enumerate(NAMES):
                ids = tok.ids_of(tok.words_of(render_template(template, name)))
                np.testing.assert_allclose(anchors[l, c],
                                           encode_alone(te, te.embed_ids(ids)),
                                           rtol=0, atol=1e-12)


def test_cached_text_work_is_read_only(small_model):
    te = small_model.text_encoder
    assert te is text_tower(small_model.cfg)
    # every model of the config reads these arrays
    frames, restore = te.name_frames(NAMES)
    for cached in (small_model.anchors(NAMES), *frames, restore):
        with pytest.raises(ValueError, match="read-only"):
            cached[...] = 0


def test_anchors_reject_a_template_that_cuts_the_class_name(small_enc):
    # small_enc holds 16 tokens: start, 14 words, end
    te = TextEncoder(small_enc)
    fits = [" ".join(["the"] * 13) + " {}"]
    assert te.anchors(fits, ["oak"]).shape == (1, 1, small_enc.d)
    cut = "a photo of {}"
    long = " ".join(["the"] * 14) + " {}"
    with pytest.raises(ConfigError, match=r"with class 'rocket' has 15 "
                                          r"words; at most 14 fit"):
        te.anchors([cut, long], ["rocket"])
    # two-word names count both words
    with pytest.raises(ConfigError, match="'palm tree' has 15 words"):
        te.anchors(fits, ["palm tree"])


def test_class_rows_grad_check(small_model):
    model = small_model
    ps = model.prompt_set
    rng = np.random.default_rng(0)
    ps.bias.data[...] = rng.normal(0.0, 0.1, size=ps.bias.shape)
    weights = rng.normal(size=(ps.groups, len(NAMES), model.cfg.d))

    def f(vectors, bias):
        return (model.class_rows(NAMES, with_bias=True) * weights).sum()

    report = grad_check(f, [ps.vectors, ps.bias])
    assert report["passed"], report["max_rel_error"]


def test_one_encode_batch_per_group_and_length(small_model, monkeypatch):
    model = small_model
    calls = []
    encode = model.text_encoder.encode_batch

    def counting(x):
        calls.append(x.shape)
        return encode(x)

    monkeypatch.setattr(model.text_encoder, "encode_batch", counting)
    model.class_rows(NAMES)
    # one call per name length, each holding every group's sequences
    groups = model.prompt_set.groups
    assert len(calls) == 2
    assert sorted(shape[:2] for shape in calls) == [(groups, 1), (groups, 2)]


def test_encode_batch_of_groups_equals_one_call_per_group(small_model):
    te = small_model.text_encoder
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(3, 5, 6, te.cfg.d_tok)), requires_grad=True)
    weights = rng.normal(size=(3, 5, te.cfg.d))
    (te.encode_batch(x) * weights).sum().backward()
    whole, whole_grad = te.encode_batch(x).data, x.grad
    for g in range(3):
        xg = Tensor(x.data[g], requires_grad=True)
        out = te.encode_batch(xg)
        (out * weights[g]).sum().backward()
        assert np.array_equal(out.data, whole[g])
        assert np.array_equal(xg.grad, whole_grad[g])


def count_vision_passes(model, monkeypatch) -> list[int]:
    sizes = []
    encode = model.vision_encoder.encode_batch

    def counting(x):
        sizes.append(x.shape[0])
        return encode(x)

    monkeypatch.setattr(model.vision_encoder, "encode_batch", counting)
    return sizes


@pytest.mark.parametrize("n", [2, 65, 130, 1000])
def test_encode_images_in_chunks_equals_one_pass(small_model, monkeypatch, n):
    model = small_model
    images = np.random.default_rng(n).random((n, 16, 16, 3))
    with no_grad():
        whole = model.vision_encoder.encode_batch(Tensor(images)).data
        sizes = count_vision_passes(model, monkeypatch)
        got = model.encode_images(images).data
    assert np.array_equal(got, whole)
    assert len(sizes) == math.ceil(n / IMAGE_CHUNK) and sum(sizes) == n
    # a lone image takes another BLAS kernel, so no chunk may hold one
    assert min(sizes) > 1 and max(sizes) <= IMAGE_CHUNK


def test_encode_images_grad_check_across_chunks(small_model, monkeypatch):
    model = small_model
    ve = model.vision_encoder
    ve.set_ln_trainable(True)
    rng = np.random.default_rng(0)
    images = rng.random((IMAGE_CHUNK + 2, 16, 16, 3))
    weights = rng.normal(size=(len(images), model.cfg.d))
    sizes = count_vision_passes(model, monkeypatch)

    def f(*ln):
        return (model.encode_images(images) * weights).sum()

    report = grad_check(f, ve.trunk.ln_params())
    assert sizes[0] == 33 and sizes[1] == 33    # two chunks per call
    assert report["passed"], report["max_rel_error"]


def test_a_failing_helper_chunk_raises_data_error(small_model, monkeypatch):
    # three chunks of 50, the last all pixels on which the tower overflows;
    # warnings as errors show the encode runs in frozen_features' errstate,
    # and a failure is not kept, so a second call encodes and raises again
    images = np.random.default_rng(0).random((150, *IMAGE_SHAPE))
    images[100:] = 1e307
    split = FewShotDataset(images, np.zeros(150, dtype=np.int64), "base-test")
    sizes = count_vision_passes(small_model, monkeypatch)
    for _ in range(2):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError,
                               match="base-test image features are not finite"):
                small_model.frozen_features(split)
    assert autodiff._grad_enabled is True
    assert sizes == [50, 50, 50] * 2 and split.features == {}


def uncached_features(model, images: np.ndarray) -> np.ndarray:
    with no_grad():
        return model.encode_images(images).data


def test_frozen_features_are_read_only_and_encoded_once(small_model,
                                                        monkeypatch):
    images = np.random.default_rng(0).random((130, *IMAGE_SHAPE))
    split = FewShotDataset(images, np.zeros(130, dtype=np.int64), "base-test")
    sizes = count_vision_passes(small_model, monkeypatch)
    feats = small_model.frozen_features(split)
    again = small_model.frozen_features(split)
    assert again is feats and len(sizes) == 3
    assert feats.tobytes() == uncached_features(small_model, images).tobytes()
    assert not feats.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        feats[0, 0] = 0.0


def test_split_images_are_read_only():
    # features are kept on a split, so no write may reach its images: an
    # owned float64 C array is frozen in place, any other array is copied
    # into one first, and the split's images cannot be swapped for others
    labels = np.zeros(3, dtype=np.int64)
    x = np.random.default_rng(0).random((3, *IMAGE_SHAPE))
    split = FewShotDataset(x, labels, "base-test")
    assert split.images is x
    with pytest.raises(ValueError, match="read-only"):
        split.images[0, 0, 0, 0] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        split.images = x.copy()
    base = np.random.default_rng(1).random((6, *IMAGE_SHAPE))
    for other in (base[::2], base[:3].astype(np.float32),
                  np.asfortranarray(base[:3])):
        split = FewShotDataset(other, labels, "base-test")
        x = split.images
        assert x.dtype == np.float64 and x.flags.c_contiguous
        assert x.flags.owndata and not x.flags.writeable
        assert np.array_equal(x, other)
        before = x.copy()
        base[:] = 0.5
        other[...] = 0.25
        assert np.array_equal(x, before)


def test_features_go_when_their_split_does(small_model):
    images = np.random.default_rng(0).random((4, *IMAGE_SHAPE))
    split = FewShotDataset(images, np.zeros(4, dtype=np.int64), "base-test")
    feats = weakref.ref(small_model.frozen_features(split))
    assert feats() is not None and len(split.features) == 1
    del split
    assert feats() is None


def test_equal_images_in_a_new_array_are_encoded_again(small_model,
                                                       monkeypatch):
    # features are kept on the split, not by the images' bytes
    images = np.random.default_rng(0).random((4, *IMAGE_SHAPE))
    labels = np.zeros(4, dtype=np.int64)
    one = FewShotDataset(images, labels, "base-test")
    two = FewShotDataset(images.copy(), labels, "base-test")
    sizes = count_vision_passes(small_model, monkeypatch)
    first = small_model.frozen_features(one)
    second = small_model.frozen_features(two)
    assert sizes == [4, 4] and len(one.features) == len(two.features) == 1
    assert second is not first and second.tobytes() == first.tobytes()
    assert small_model.frozen_features(one) is first and sizes == [4, 4]


def test_towers_that_differ_only_in_heads_get_their_own_features(small_enc):
    # n_heads changes the features but no parameter's shape or bytes
    bank = split_templates(load_template_bank("6"), 1, 0)
    models = [PromptedClip(enc, init_prompts(1, 2, enc.d_tok, enc.d, 0), bank)
              for enc in (small_enc, dataclasses.replace(small_enc, n_heads=1))]
    one, two = ({k: p.data for k, p in m.vision_encoder.named_params().items()}
                for m in models)
    assert all(np.array_equal(one[k], two[k]) for k in one)
    images = np.random.default_rng(0).random((4, *IMAGE_SHAPE))
    split = FewShotDataset(images, np.zeros(4, dtype=np.int64), "base-test")
    # each tower in turn replaces the split's features with its own
    for model in models + models:
        assert (model.frozen_features(split).tobytes()
                == uncached_features(model, images).tobytes())
        assert len(split.features) == 1
