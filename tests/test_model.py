import math

import numpy as np
import pytest

from lasp.autodiff import Tensor, grad_check, no_grad
from lasp.errors import TemplateError
from lasp.model import IMAGE_CHUNK, PromptedClip
from lasp.prompts import (TemplateBank, init_prompts, load_template_bank,
                          render_template, split_templates)
from lasp.tokenizer import END_ID, START_ID

# one- and two-token names, so class_rows encodes two length buckets
NAMES = ["oak", "palm tree", "rocket"]


@pytest.fixture
def small_model(small_enc):
    bank = split_templates(load_template_bank("6"), 2, 0)
    prompts = init_prompts(bank.groups, 2, small_enc.d_tok, small_enc.d, 0)
    return PromptedClip(small_enc, prompts, bank)


def encode_alone(model, embeddings: np.ndarray) -> np.ndarray:
    with no_grad():
        return model.text_encoder.encode_batch(Tensor(embeddings[None])).data[0]


def test_class_rows_match_each_sequence_encoded_alone(small_model):
    model = small_model
    te, tok = model.text_encoder, model.tokenizer
    assert model.prompt_set.groups == 2
    rows = model.class_rows(NAMES, with_bias=False).data
    assert rows.shape == (2, len(NAMES), model.cfg.d)
    for g in range(2):
        for c, name in enumerate(NAMES):
            seq = np.concatenate([te.embed_ids([START_ID]),
                                  model.prompt_set.vectors.data[g],
                                  te.embed_class_name(tok, name),
                                  te.embed_ids([END_ID])])
            np.testing.assert_allclose(rows[g, c], encode_alone(model, seq),
                                       rtol=0, atol=1e-12)


def test_anchors_match_each_template_encoded_alone(small_model):
    model = small_model
    te, tok = model.text_encoder, model.tokenizer
    anchors = model.anchors(NAMES)
    assert anchors.shape == (len(model.bank), len(NAMES), model.cfg.d)
    for l, template in enumerate(model.bank.templates):
        for c, name in enumerate(NAMES):
            ids = tok.tokenize(render_template(template, name))
            np.testing.assert_allclose(anchors[l, c],
                                       encode_alone(model, te.embed_ids(ids)),
                                       rtol=0, atol=1e-12)


def test_anchors_reject_a_template_that_cuts_the_class_name(small_enc):
    # small_enc holds 16 tokens: start, 14 words, end
    prompts = init_prompts(1, 2, small_enc.d_tok, small_enc.d, 0)
    fits = PromptedClip(small_enc, prompts,
                        TemplateBank([" ".join(["the"] * 13) + " {}"]))
    assert fits.anchors(["oak"]).shape == (1, 1, small_enc.d)
    cut = "a photo of {}"
    long = " ".join(["the"] * 14) + " {}"
    model = PromptedClip(small_enc, prompts, TemplateBank([cut, long]))
    with pytest.raises(TemplateError, match=r"with class 'rocket' has 15 "
                                            r"words; at most 14 fit"):
        model.anchors(["rocket"])
    # two-word names count both words
    with pytest.raises(TemplateError, match="'palm tree' has 15 words"):
        PromptedClip(small_enc, prompts, TemplateBank(
            [" ".join(["the"] * 13) + " {}"])).anchors(["palm tree"])


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
