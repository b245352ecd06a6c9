import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lasp.encoders import TextEncoder
from lasp.errors import ConfigError, DataError
from lasp.prompts import (ClassVocabulary, TemplateBank,
                          assemble_learnable_prompt, generate_random_templates,
                          init_prompts, init_prompts_from_words,
                          load_template_bank, render_template, split_templates)
from lasp.tokenizer import END_ID, START_ID, Tokenizer


def test_init_prompts_shapes_and_scale():
    ps = init_prompts(3, 4, 8, 16, seed=0)
    assert ps.vectors.shape == (3, 4, 8)
    assert ps.bias.shape == (16,)
    assert ps.groups == 3 and ps.m == 4
    assert abs(ps.vectors.data.std() - 0.02) < 0.01
    assert not ps.bias.data.any()
    assert ps.vectors.requires_grad and ps.bias.requires_grad


def test_init_prompts_deterministic():
    a, b = init_prompts(2, 2, 8, 8, 5), init_prompts(2, 2, 8, 8, 5)
    assert np.array_equal(a.vectors.data, b.vectors.data)


def test_init_prompts_validation():
    with pytest.raises(ConfigError):
        init_prompts(0, 2, 8, 8, 0)


def test_init_prompts_from_words(small_enc):
    te = TextEncoder(small_enc)
    tok = Tokenizer(max_len=small_enc.max_len)
    ps = init_prompts_from_words(te, tok, ["a", "photo", "of", "a"], 2,
                                 small_enc.d, seed=0, jitter=0.0)
    assert ps.vectors.shape == (2, 4, small_enc.d_tok)
    ids = [tok.word_id(w) for w in ["a", "photo", "of", "a"]]
    backbone = te.embedding[np.asarray(ids)]
    for g in range(2):
        assert np.array_equal(ps.vectors.data[g], backbone)
    jittered = init_prompts_from_words(te, tok, ["a", "photo"], 2,
                                       small_enc.d, seed=0, jitter=0.5)
    assert not np.array_equal(jittered.vectors.data[0],
                              jittered.vectors.data[1])


def test_template_bank_requires_placeholder():
    with pytest.raises(ConfigError):
        TemplateBank(["no placeholder here"])
    with pytest.raises(ConfigError):
        TemplateBank(["two {} holes {}"])


def test_load_shipped_banks():
    for source, n in (("1", 1), ("6", 6), ("34", 34), ("100", 100)):
        bank = load_template_bank(source)
        assert len(bank) == n
        assert bank.groups == 1


def test_unreadable_template_file_is_config_error(tmp_path):
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes("a caf\xe9 {}\n".encode("latin-1"))
    for source in (tmp_path / "missing.txt", tmp_path, latin1):
        with pytest.raises(ConfigError, match="cannot read template file "
                                              + re.escape(str(source))):
            load_template_bank(str(source))


def test_render_template():
    assert render_template("a photo of a {}", "tree_frog") == "a photo of a tree frog"
    with pytest.raises(ConfigError):
        render_template("nothing to fill", "dog")


@given(st.integers(1, 4), st.integers(0, 1000))
@settings(max_examples=30, deadline=None)
def test_split_templates_balanced_partition(groups, seed):
    bank = load_template_bank("34")
    split = split_templates(bank, groups, seed)
    sizes = [len(split.indices_of_group(g)) for g in range(groups)]
    assert sum(sizes) == len(bank)
    assert max(sizes) - min(sizes) <= 1
    assert sorted(i for g in range(groups) for i in split.indices_of_group(g)) \
        == list(range(len(bank)))


def test_split_templates_too_many_groups():
    with pytest.raises(ConfigError):
        split_templates(load_template_bank("1"), 2, 0)


def test_generate_random_templates():
    bank = generate_random_templates(5, 2, 4, seed=0)
    assert len(bank) == 5
    for t in bank.templates:
        assert t.endswith("{}")
        assert 2 <= len(t.split()) - 1 <= 4
    again = generate_random_templates(5, 2, 4, seed=0)
    assert bank.templates == again.templates


def test_class_vocabulary():
    v = ClassVocabulary(["cat", "dog"], ["owl"])
    assert v.all_names == ["cat", "dog", "owl"]
    v2 = v.with_virtual(["fox"])
    assert v2.all_names == ["cat", "dog", "owl", "fox"]
    with pytest.raises(DataError):
        ClassVocabulary(["cat", "cat"])
    with pytest.raises(DataError):
        v.with_virtual(["dog"])


def name_frame(te, names):
    """(C, 1 + L + 1, d_tok) [start, name tokens, end] rows of equal-length names."""
    return np.stack([np.concatenate([te.embed_ids([START_ID]),
                                     te.embed_class_name(name),
                                     te.embed_ids([END_ID])])
                     for name in names])


def test_assemble_learnable_prompt_layout(small_enc):
    te = TextEncoder(small_enc)
    ps = init_prompts(2, 3, small_enc.d_tok, small_enc.d, 0)
    names = ["palm tree", "tree frog"]
    batch = assemble_learnable_prompt(ps.vectors[1], name_frame(te, names))
    # per class: start + 3 prompt slots + 2 name tokens + end
    assert batch.shape == (2, 7, small_enc.d_tok)
    for c, name in enumerate(names):
        assert np.array_equal(batch.data[c, 0], te.embed_ids([START_ID])[0])
        assert np.array_equal(batch.data[c, 1:4], ps.vectors.data[1])
        assert np.array_equal(batch.data[c, 4:6], te.embed_class_name(name))
        assert np.array_equal(batch.data[c, -1], te.embed_ids([END_ID])[0])


def test_assemble_learnable_prompt_of_every_group(small_enc):
    te = TextEncoder(small_enc)
    ps = init_prompts(2, 3, small_enc.d_tok, small_enc.d, 0)
    frame = name_frame(te, ["palm tree", "tree frog"])
    batch = assemble_learnable_prompt(ps.vectors, frame)
    assert batch.shape == (2, 2, 7, small_enc.d_tok)
    for g in range(2):
        one = assemble_learnable_prompt(ps.vectors[g], frame)
        assert np.array_equal(batch.data[g], one.data)


def test_assembled_prompt_grad_reaches_vectors(small_enc):
    te = TextEncoder(small_enc)
    ps = init_prompts(1, 2, small_enc.d_tok, small_enc.d, 0)
    batch = assemble_learnable_prompt(ps.vectors[0], name_frame(te, ["cat"]))
    te.encode_batch(batch).sum().backward()
    assert ps.vectors.grad is not None and np.abs(ps.vectors.grad).max() > 0
