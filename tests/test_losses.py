import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lasp.autodiff import Tensor, grad_check
from lasp.errors import ConfigError, DataError
from lasp.losses import (apply_bias_correction, combined_loss,
                         grouped_cosine_scores, grouped_tt_loss,
                         template_averaged_probs, tt_loss, vl_loss)
from lasp.prompts import TemplateBank


def randn(shape, seed, scale=1.0):
    return scale * np.random.default_rng(seed).standard_normal(shape)


def make_bank(n_templates, groups=1):
    group_of = [i % groups for i in range(n_templates)]
    return TemplateBank([f"t {i} {{}}" for i in range(n_templates)], group_of)


# -- distributions -------------------------------------------------------------


def manual_softmax(logits):
    z = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return z / z.sum(axis=-1, keepdims=True)


def unit(a):
    return a / np.linalg.norm(a, axis=-1, keepdims=True)


def test_zero_shot_distribution_matches_manual():
    # zero-shot scoring of one image feature against one stack of class anchors
    anchors = randn((4, 6), 0)
    f = randn(6, 1)
    tau = 0.5
    got = template_averaged_probs(anchors[None], Tensor(f[None]), tau).data[0]
    want = manual_softmax(unit(anchors) @ unit(f) / tau)
    assert np.allclose(got, want, atol=1e-12)


def test_text_class_distribution_single_template_is_softmax():
    # text-side class distribution of the learnable rows, one template
    anchors = randn((1, 4, 6), 3)
    x = randn((5, 6), 4)
    tau = 0.3
    got = template_averaged_probs(anchors, Tensor(x), tau).data
    want = manual_softmax(unit(x) @ unit(anchors[0]).T / tau)
    assert np.allclose(got, want, atol=1e-12)


def test_template_averaged_probs_averages_probabilities():
    anchors = randn((3, 4, 6), 4)
    x = randn((5, 6), 5)
    got = template_averaged_probs(anchors, Tensor(x), 0.4).data
    per = np.stack([manual_softmax(unit(x) @ unit(anchors[s]).T / 0.4)
                    for s in range(3)])
    assert np.allclose(got, per.mean(axis=0), atol=1e-12)
    assert np.allclose(got.sum(axis=-1), 1.0, atol=1e-9)


def test_template_averaged_probs_rejects_empty():
    for anchors in (np.zeros((0, 3, 4)), np.ones((3, 4))):
        with pytest.raises(ConfigError):
            template_averaged_probs(anchors, Tensor(np.ones((2, 4))), 0.5)


def test_grouped_cosine_scores_scale_invariant():
    rows = randn((2, 3, 5), 2, scale=7.0)     # large-norm rows
    f = Tensor(randn((4, 5), 3))
    scale = np.random.default_rng(6).uniform(0.5, 3.0, size=(2, 3, 1))
    a = grouped_cosine_scores(Tensor(rows), f).data
    b = grouped_cosine_scores(Tensor(rows * scale), f).data
    assert np.allclose(a, b, atol=1e-12)   # cosine is scale-free


def test_vl_loss_rejects_zero_feature():
    feats = randn((2, 4), 1)
    feats[1] = 0.0
    with pytest.raises(DataError):
        vl_loss(Tensor(randn((1, 3, 4), 0)), Tensor(feats), [0, 1], 0.5)


# -- losses: oracles against finite differences --------------------------------


@pytest.mark.parametrize("seed", range(5))
def test_vl_loss_gradient(seed):
    rng = np.random.default_rng(seed)
    g, c, d, b = int(rng.integers(1, 4)), int(rng.integers(2, 6)), 8, 3
    rows = Tensor(randn((g, c, d), seed + 10), requires_grad=True)
    feats = Tensor(randn((b, d), seed + 20), requires_grad=True)
    labels = rng.integers(0, c, size=b)
    report = grad_check(lambda r, f: vl_loss(r, f, labels, tau=0.5),
                        [rows, feats])
    assert report["passed"], report["max_rel_error"]


@pytest.mark.parametrize("kind", ["ce", "l1", "l2"])
@pytest.mark.parametrize("seed", [0, 1])
def test_tt_loss_gradient(kind, seed):
    rng = np.random.default_rng(seed)
    c, extra, l, d = int(rng.integers(2, 6)), int(rng.integers(0, 3)), 2, 8
    anchors = randn((l, c + extra, d), seed + 1)
    rows = Tensor(randn((c, d), seed + 2), requires_grad=True)
    report = grad_check(lambda r: tt_loss(anchors, r, tau=0.5, kind=kind),
                        [rows])
    assert report["passed"], report["max_rel_error"]


def test_tt_loss_validation():
    with pytest.raises(ConfigError):
        tt_loss(randn((1, 3, 4), 0), Tensor(randn((3, 4), 1)), 0.5, kind="huber")
    with pytest.raises(DataError):
        tt_loss(randn((1, 2, 4), 0), Tensor(randn((3, 4), 1)), 0.5)


def test_tt_loss_scale_independent_of_class_count():
    """Averaging over classes: duplicating every class keeps the loss."""
    anchors = randn((2, 3, 6), 5)
    rows = randn((3, 6), 6)
    one = tt_loss(anchors, Tensor(rows), 0.5).item()
    anchors2 = np.concatenate([anchors, anchors], axis=1)
    # duplicated anchors halve each correct-class probability: compare l2
    l2_one = tt_loss(anchors, Tensor(rows), 0.5, kind="l2").item()
    l2_two = tt_loss(np.tile(anchors, (1, 2, 1)),
                     Tensor(np.tile(rows, (2, 1))), 0.5, kind="l2").item()
    assert l2_two == pytest.approx(l2_one, abs=1e-12)
    assert np.isfinite(one)


def test_grouped_tt_loss_g1_identity():
    anchors = randn((3, 4, 6), 7)
    rows = Tensor(randn((1, 4, 6), 8))
    bank = make_bank(3, groups=1)
    grouped = grouped_tt_loss(anchors, rows, bank, 0.5).item()
    plain = tt_loss(anchors, rows[0], 0.5).item()
    assert abs(grouped - plain) <= 1e-12


@pytest.mark.parametrize("groups", [2, 3])
def test_grouped_tt_loss_gradient(groups):
    l, c, d = 6, 3, 8
    anchors = randn((l, c, d), 9)
    rows = Tensor(randn((groups, c, d), 10), requires_grad=True)
    bank = make_bank(l, groups)
    report = grad_check(lambda r: grouped_tt_loss(anchors, r, bank, 0.5),
                        [rows])
    assert report["passed"], report["max_rel_error"]


def test_grouped_tt_loss_sums_group_terms():
    l, c, d = 4, 3, 6
    anchors = randn((l, c, d), 11)
    rows = Tensor(randn((2, c, d), 12))
    bank = make_bank(l, 2)
    total = grouped_tt_loss(anchors, rows, bank, 0.5).item()
    parts = sum(tt_loss(anchors[bank.indices_of_group(g)], rows[g], 0.5).item()
                for g in range(2))
    assert total == pytest.approx(parts, abs=1e-12)


def test_grouped_tt_loss_validation():
    anchors = randn((4, 3, 6), 13)
    rows = Tensor(randn((2, 3, 6), 14))
    with pytest.raises(ConfigError):
        grouped_tt_loss(anchors, rows, make_bank(4, 1), 0.5)   # group mismatch
    with pytest.raises(ConfigError):
        grouped_tt_loss(anchors[:3], rows, make_bank(4, 2), 0.5)


def test_combined_loss_composite_gradient():
    g, c, d, b, l = 2, 3, 8, 2, 2
    anchors = randn((l, c, d), 15)
    bank = make_bank(l, g)
    labels = np.array([0, 2])

    def f(rows, feats):
        lv = vl_loss(rows, feats, labels, tau=0.5)
        lt = grouped_tt_loss(anchors, rows, bank, tau=0.5)
        return combined_loss(lv, lt, 1.0, 20.0)

    rows = Tensor(randn((g, c, d), 16), requires_grad=True)
    feats = Tensor(randn((b, d), 17), requires_grad=True)
    report = grad_check(f, [rows, feats])
    assert report["passed"], report["max_rel_error"]


def test_combined_loss_alpha_tt_zero_exact():
    lv, lt = Tensor(np.array(1.234)), Tensor(np.array(9.876))
    out = combined_loss(lv, lt, 0.7, 0.0).item()
    assert out == 0.7 * 1.234


def test_combined_loss_rejects_nonfinite_coeffs():
    with pytest.raises(ConfigError):
        combined_loss(Tensor(1.0), Tensor(1.0), np.inf, 1.0)


# -- bias / scores -------------------------------------------------------------


def test_apply_bias_correction_shifts_every_row():
    rows = Tensor(randn((2, 3, 4), 18))
    bias = Tensor(randn(4, 19))
    out = apply_bias_correction(rows, bias).data
    assert np.allclose(out - rows.data, bias.data, atol=1e-15)
    with pytest.raises(ValueError):
        apply_bias_correction(rows, Tensor(np.zeros(5)))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_grouped_cosine_scores_bounded(seed):
    rows = Tensor(randn((2, 4, 6), seed))
    f = Tensor(randn((3, 6), seed + 1))
    scores = grouped_cosine_scores(rows, f).data
    assert scores.shape == (3, 4)
    assert (np.abs(scores) <= 1.0 + 1e-9).all()
