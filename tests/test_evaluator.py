import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lasp.encoders import EncoderConfig, VisionEncoder
from lasp.errors import DataError
from lasp.evaluator import (MODES, EvalReport, centroid_distance_matrix,
                            evaluate_generalized, evaluate_split,
                            evaluate_standard, harmonic_mean)
from lasp.model import PromptedClip
from lasp.prompts import init_prompts, load_template_bank, split_templates
from lasp.trainer import FewShotDataset

acc = st.floats(0.0, 100.0)


def test_harmonic_mean_reference_values():
    assert harmonic_mean(82.70, 74.90) == pytest.approx(78.61, abs=0.01)
    assert harmonic_mean(63.22, 82.69) == pytest.approx(71.66, abs=0.01)
    assert harmonic_mean(0.0, 0.0) == 0.0


@given(acc, acc)
@settings(max_examples=50, deadline=None)
def test_harmonic_mean_properties(b, n):
    h = harmonic_mean(b, n)
    assert 0.0 <= h <= max(b, n) + 1e-9
    assert h <= (b + n) / 2 + 1e-9            # HM <= AM
    assert h == pytest.approx(harmonic_mean(n, b), abs=1e-9)


def test_harmonic_mean_rejects_out_of_range():
    with pytest.raises(DataError):
        harmonic_mean(-1.0, 50.0)
    with pytest.raises(DataError):
        harmonic_mean(50.0, 101.0)


@pytest.fixture(scope="module")
def eval_model():
    enc = EncoderConfig(d_tok=8, d=8, n_layers=1, n_heads=2, max_len=16)
    prompts = init_prompts(2, 2, enc.d_tok, enc.d, 0)
    bank = split_templates(load_template_bank("6"), 2, 0)
    return PromptedClip(enc, prompts, bank)


def split_for(names, n_per=4, seed=0):
    rng = np.random.default_rng(seed)
    images = rng.random((n_per * len(names), 16, 16, 3))
    labels = np.repeat(np.arange(len(names)), n_per)
    return FewShotDataset(images, labels, "base-test")


def test_evaluate_split_in_both_modes(eval_model):
    names = ["oak", "rocket", "violet"]
    ds = split_for(names)
    for mode in MODES:
        acc_val, per_class = evaluate_split(eval_model, ds, names, mode)
        assert 0.0 <= acc_val <= 100.0
        assert set(per_class) == set(names)


def test_evaluate_split_rejects_bad_mode_and_empty(eval_model):
    ds = split_for(["oak"])
    with pytest.raises(DataError):
        evaluate_split(eval_model, ds, ["oak"], mode="projected")
    with pytest.raises(DataError):
        evaluate_split(eval_model, ds, [])
    empty = FewShotDataset(ds.images[:0], ds.labels[:0], "base-test")
    with pytest.raises(DataError):
        evaluate_split(eval_model, empty, ["oak"])


def test_evaluate_split_accuracy_range_and_per_class(eval_model):
    names = ["oak", "rocket", "violet"]
    ds = split_for(names)
    acc_val, per_class = evaluate_split(eval_model, ds, names)
    assert 0.0 <= acc_val <= 100.0
    assert set(per_class) == set(names)
    joint = np.mean([per_class[n] for n in names])
    assert acc_val == pytest.approx(joint, abs=1e-9)


def test_evaluate_split_label_offset_guard(eval_model):
    names = ["oak", "rocket"]
    ds = split_for(names)
    with pytest.raises(DataError):
        evaluate_split(eval_model, ds, names, label_offset=1)


def test_evaluate_standard_report(eval_model):
    base, new = ["oak", "rocket"], ["violet", "fern"]
    rep = evaluate_standard(eval_model, split_for(base), split_for(new, seed=1),
                            base, new)
    assert rep.h == pytest.approx(harmonic_mean(rep.base_acc, rep.new_acc))
    lines = rep.kv_lines()
    assert any(line.startswith("base_acc") for line in lines)
    assert "accuracy" in rep.table()


def test_evaluate_generalized_distractors_never_help(eval_model):
    base, new = ["oak", "rocket"], ["violet", "fern"]
    without, with_d = evaluate_generalized(
        eval_model, split_for(base), split_for(new, seed=1), base, new,
        ["squash", "heron"])
    assert with_d.base_acc <= without.base_acc + 1e-9
    assert with_d.new_acc <= without.new_acc + 1e-9


def test_evaluate_generalized_rejects_collisions(eval_model):
    base, new = ["oak"], ["violet"]
    with pytest.raises(DataError):
        evaluate_generalized(eval_model, split_for(base), split_for(new),
                             base, new, ["violet"])


def test_a_pass_encodes_each_split_once_and_a_fresh_model_none(monkeypatch):
    enc = EncoderConfig(d_tok=8, d=8, n_layers=1, n_heads=2, max_len=16)
    base, new = ["oak", "rocket"], ["violet", "fern"]
    sizes = []
    encode = VisionEncoder.encode_batch

    def counting(self, images):
        sizes.append(len(images.data))
        return encode(self, images)

    monkeypatch.setattr(VisionEncoder, "encode_batch", counting)
    # one set of splits for both passes, as RunContext keeps its splits
    bt, nt = split_for(base, n_per=40), split_for(new, n_per=40, seed=1)

    def eval_pass():
        model = PromptedClip(enc, init_prompts(2, 2, enc.d_tok, enc.d, 0),
                             split_templates(load_template_bank("6"), 2, 0))
        return [(evaluate_standard(model, bt, nt, base, new, mode),
                 *evaluate_generalized(model, bt, nt, base, new,
                                       ["squash", "heron"], mode))
                for mode in MODES]

    first = eval_pass()
    assert sizes == [40, 40] * 2      # each 80-image split in two chunks
    second = eval_pass()
    assert sizes == [40, 40] * 2 and second == first


def test_centroid_distance_matrix_properties(eval_model):
    names = ["oak", "rocket", "violet", "fern"]
    dist, mean_off = centroid_distance_matrix(eval_model, names)
    assert dist.shape == (4, 4)
    assert np.allclose(dist, dist.T, atol=1e-12)
    assert np.allclose(np.diag(dist), 0.0, atol=1e-15)
    assert (dist >= -1e-12).all() and (dist <= 2.0 + 1e-12).all()
    off = dist[~np.eye(4, dtype=bool)]
    assert mean_off == pytest.approx(float(off.mean()), abs=1e-12)


def test_centroid_distance_needs_two_classes(eval_model):
    with pytest.raises(DataError):
        centroid_distance_matrix(eval_model, ["oak"])
