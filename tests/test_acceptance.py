"""Acceptance gate: metric arithmetic, gradient oracles, structural
contracts, and the directional training effects on the synthetic fixture.

Each test prints one ``[PASS]``/``[FAIL]`` line per criterion (visible with
``pytest -s`` or on failure).
"""

import time

import numpy as np
import pytest

from lasp.autodiff import Tensor, grad_check
from lasp.encoders import TAU
from lasp.evaluator import centroid_distance_matrix, harmonic_mean
from lasp.losses import (combined_loss, grouped_tt_loss,
                         template_averaged_probs, tt_loss, vl_loss)
from lasp.prompts import TemplateBank


def report(n, desc, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\n[{tag}] criterion {n}: {desc}{suffix}")
    assert ok, f"criterion {n}: {desc}{suffix}"


# published (base, new, H) accuracy triples the harmonic mean must reproduce
PUBLISHED_TRIPLES = [
    (69.34, 74.22, 71.70), (82.69, 63.22, 71.66), (80.47, 71.69, 75.83),
    (81.56, 72.30, 76.65), (82.70, 74.90, 78.61), (83.18, 76.11, 79.48),
    (72.43, 68.14, 70.22), (76.47, 67.88, 71.92), (75.98, 70.43, 73.10),
    (75.40, 70.23, 72.72), (76.20, 70.95, 73.48), (76.25, 71.17, 73.62),
    (96.84, 94.00, 95.40), (98.17, 94.33, 96.21), (97.96, 93.81, 95.84),
    (91.17, 97.26, 94.12), (93.67, 95.29, 94.47), (95.20, 97.69, 96.43),
    (95.43, 97.83, 96.62), (95.90, 97.93, 96.90), (95.73, 97.87, 96.79),
    (78.12, 60.40, 68.13), (70.49, 73.59, 72.01), (74.70, 71.20, 72.91),
    (75.17, 71.60, 73.34), (75.23, 71.77, 73.46), (72.08, 77.80, 74.83),
    (97.60, 59.67, 74.06), (94.87, 71.75, 81.71), (97.70, 68.68, 80.66),
    (97.00, 74.00, 83.95), (97.17, 73.53, 83.71), (90.10, 91.22, 90.66),
    (88.33, 82.26, 85.19), (90.70, 91.29, 90.99), (90.30, 88.57, 89.43),
    (91.20, 91.70, 91.44), (91.20, 91.90, 91.54), (27.19, 36.29, 31.09),
    (40.44, 22.30, 28.75), (33.41, 23.71, 27.74), (36.90, 34.13, 35.46),
    (34.53, 30.57, 32.43), (38.05, 33.20, 35.46), (69.36, 75.35, 72.23),
    (80.60, 65.89, 72.51), (79.74, 76.86, 78.27), (78.67, 76.93, 77.79),
    (80.70, 78.60, 79.63), (80.70, 79.30, 80.00), (53.24, 59.90, 56.37),
    (79.44, 41.18, 54.24), (77.01, 56.00, 64.85), (80.67, 56.48, 66.44),
    (81.40, 58.60, 68.14), (81.10, 62.57, 70.64), (56.48, 64.05, 60.03),
    (87.49, 60.04, 71.21), (83.90, 66.00, 73.88), (94.60, 77.78, 85.36),
    (70.53, 77.50, 73.85), (84.69, 56.05, 67.46), (82.33, 73.45, 77.64),
    (85.23, 71.97, 78.04), (84.77, 78.03, 81.26), (85.53, 78.20, 81.70),
]


def test_criterion_01_metric_reproduction():
    t0 = time.monotonic()
    errors = [abs(harmonic_mean(b, n) - h) for b, n, h in PUBLISHED_TRIPLES]
    elapsed = time.monotonic() - t0
    ok = (len(PUBLISHED_TRIPLES) >= 10 and max(errors) <= 0.01
          and elapsed < 1.0)
    report(1, "harmonic mean reproduces published accuracy triples", ok,
           f"{len(PUBLISHED_TRIPLES)} triples, max err {max(errors):.4f}, "
           f"{elapsed:.3f}s")


def test_criterion_02_gradient_suite():
    t0 = time.monotonic()
    tau = 0.5
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        c = int(rng.choice([2, 3, 5]))
        l = int(rng.choice([1, 2, 6]))
        g = int(rng.choice([gg for gg in (1, 2, 3) if gg <= l]))
        d, b = 8, 3
        anchors = rng.standard_normal((l, c, d))
        bank = TemplateBank([f"t {i} {{}}" for i in range(l)],
                            [i % g for i in range(l)])
        labels = rng.integers(0, c, size=b)
        rows_flat = Tensor(rng.standard_normal((c, d)), requires_grad=True)
        rows_g = Tensor(rng.standard_normal((g, c, d)), requires_grad=True)
        feats = Tensor(rng.standard_normal((b, d)), requires_grad=True)
        checks = [
            grad_check(lambda r, f: vl_loss(r, f, labels, tau),
                       [rows_g, feats], step=1e-4),
            grad_check(lambda r: tt_loss(anchors, r, tau), [rows_flat],
                       step=1e-4),
            grad_check(lambda r: grouped_tt_loss(anchors, r, bank, tau),
                       [rows_g], step=1e-4),
            grad_check(lambda r, f: combined_loss(
                vl_loss(r, f, labels, tau),
                grouped_tt_loss(anchors, r, bank, tau), 1.0, 20.0),
                [rows_g, feats], step=1e-4),
        ]
        worst = max(worst, max(ch["max_rel_error"] for ch in checks))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-4 and elapsed < 30.0
    report(2, "finite-difference gradients of all loss terms", ok,
           f"max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_image_independence(small_enc):
    from lasp.model import PromptedClip
    from lasp.prompts import (ClassVocabulary, init_prompts,
                              load_template_bank, split_templates)
    from lasp.trainer import TrainConfig, Trainer
    prompts = init_prompts(2, 2, small_enc.d_tok, small_enc.d, 0)
    bank = split_templates(load_template_bank("6"), 2, 0)
    model = PromptedClip(small_enc, prompts, bank)
    trainer = Trainer(model, ClassVocabulary(["oak", "rocket"]),
                      TrainConfig(groups=2))
    rng = np.random.default_rng(0)
    labels = np.array([0, 1])
    tt_vals, grouped_vals = set(), set()
    for _ in range(10):
        images = rng.random((2, 16, 16, 3))
        _, l_tt, _ = trainer._losses(images, labels)
        grouped_vals.add(l_tt.item())
        rows = model.class_rows(["oak", "rocket"], with_bias=False)
        tt_vals.add(tt_loss(trainer.anchors[:1], rows[0], TAU).item())
    ok = len(tt_vals) == 1 and len(grouped_vals) == 1
    report(3, "text-to-text losses are bitwise image-independent", ok,
           f"{len(grouped_vals)} distinct grouped values over 10 trials")


def test_criterion_04_reduction_identities():
    rng = np.random.default_rng(0)
    l, c, d = 3, 4, 8
    anchors = rng.standard_normal((l, c, d))
    rows = Tensor(rng.standard_normal((1, c, d)))
    bank = TemplateBank([f"t {i} {{}}" for i in range(l)])
    g1 = grouped_tt_loss(anchors, rows, bank, 0.5).item()
    flat = tt_loss(anchors, rows[0], 0.5).item()

    x = rng.standard_normal(d)
    single_stack = template_averaged_probs(anchors[:1], Tensor(x[None]), 0.5).data[0]
    an = anchors[0] / np.linalg.norm(anchors[0], axis=-1, keepdims=True)
    logits = an @ (x / np.linalg.norm(x)) / 0.5
    single_softmax = np.exp(logits - logits.max())
    single_softmax /= single_softmax.sum()

    lv, lt = Tensor(np.array(1.7)), Tensor(np.array(4.2))
    exact = combined_loss(lv, lt, 0.3, 0.0).item() == 0.3 * 1.7

    ok = (abs(g1 - flat) <= 1e-12
          and np.abs(single_stack - single_softmax).max() <= 1e-12
          and exact)
    report(4, "grouped/template/combined reduction identities", ok,
           f"grouped-vs-flat {abs(g1 - flat):.2e}")


def _fifty_step_run(small_enc, ln_finetune):
    from lasp.model import PromptedClip
    from lasp.prompts import (ClassVocabulary, init_prompts,
                              load_template_bank, split_templates)
    from lasp.trainer import TrainConfig, Trainer
    prompts = init_prompts(2, 2, small_enc.d_tok, small_enc.d, 0)
    bank = split_templates(load_template_bank("6"), 2, 0)
    model = PromptedClip(small_enc, prompts, bank)
    cfg = TrainConfig(groups=2, ln_finetune=ln_finetune, lr=0.01)
    trainer = Trainer(model, ClassVocabulary(["oak", "rocket"]), cfg)
    rng = np.random.default_rng(1)
    images = rng.random((4, 16, 16, 3))
    labels = np.array([0, 0, 1, 1])
    snapshot = {k: v.data.copy() for k, v in
                {**model.text_encoder.named_params(),
                 **model.vision_encoder.named_params()}.items()}
    snapshot["prompts.vectors"] = model.prompt_set.vectors.data.copy()
    snapshot["prompts.bias"] = model.prompt_set.bias.data.copy()
    for step in range(50):
        trainer.train_step(images, labels, lr=0.01, step_index=step)
    return model, snapshot


def test_criterion_05_parameter_scope_freezing(small_enc):
    ok = True
    details = []
    for ln_on in (False, True):
        model, snap = _fifty_step_run(small_enc, ln_on)
        current = {**model.text_encoder.named_params(),
                   **model.vision_encoder.named_params()}
        current["prompts.vectors"] = model.prompt_set.vectors
        current["prompts.bias"] = model.prompt_set.bias
        for k, v in current.items():
            changed = not np.array_equal(snap[k], v.data)
            should_change = (k.startswith("prompts.")
                             or (ln_on and k.startswith("vision.")
                                 and "ln" in k))
            if changed != should_change:
                ok = False
                details.append(f"LN={'on' if ln_on else 'off'} {k} "
                               f"{'moved' if changed else 'frozen'}")
    report(5, "updates confined to prompts/bias (+vision LN when enabled)",
           ok, "; ".join(details) or "both configs clean")


def test_criterion_06_shared_bias_contract(small_enc):
    model, _ = _fifty_step_run(small_enc, ln_finetune=False)
    names = ["oak", "rocket", "violet", "fern"]   # includes novel classes
    with_b = model.class_rows(names, with_bias=True).data
    without = model.class_rows(names, with_bias=False).data
    b = model.prompt_set.bias.data
    err = np.abs((with_b - without) - b).max()
    ok = err <= 1e-12 and np.abs(b).max() > 0
    report(6, "one shared bias shifts every group and class row", ok,
           f"max deviation {err:.2e}")


# -- directional criteria on the synthetic fixture -----------------------------


def test_criterion_07_lasp_effect(bench):
    t0 = time.monotonic()
    base_b, new_b = bench.mean_accs("baseline")
    base_l, new_l = bench.mean_accs("lasp")
    base_v, new_v = bench.mean_accs("lasp-v")
    # fixture generation + the nine training runs + evaluation
    elapsed = bench.dataset_time + (time.monotonic() - t0)
    ok = (55.0 <= new_b <= 75.0
          and new_l > new_b
          and new_v >= new_l
          and abs(base_l - base_b) <= 3.0
          and elapsed < 300.0)
    report(7, "text-to-text training lifts new-class accuracy", ok,
           f"new: baseline {new_b:.1f} < lasp {new_l:.1f} <= lasp-v {new_v:.1f}; "
           f"base gap {abs(base_l - base_b):.1f}; {elapsed:.0f}s")


def test_criterion_08_centroid_separation(bench):
    d_base, d_lasp = [], []
    for s in bench.SEEDS:
        d_base.append(centroid_distance_matrix(bench.model("baseline", s),
                                               bench.base)[1])
        d_lasp.append(centroid_distance_matrix(bench.model("lasp", s),
                                               bench.base)[1])
    mb, ml = float(np.mean(d_base)), float(np.mean(d_lasp))
    ok = ml > mb
    report(8, "class embeddings spread farther apart with the text loss", ok,
           f"mean off-diagonal distance lasp {ml:.3f} > baseline {mb:.3f}")


def test_criterion_09_distractor_monotonicity(bench):
    effects = [bench.ctx.distractor_effect(bench.model("lasp", s),
                                           bench.model("lasp-v+distractors", s))
               for s in bench.SEEDS]
    drop = float(np.mean([d for _, d, _ in effects]))
    recovered = float(np.mean([r for _, _, r in effects]))
    ok = drop >= 0.0 and recovered > 0.0
    report(9, "distractors cost accuracy; virtual classes claw some back", ok,
           f"drop {drop:.2f}, recovered {recovered:.2f}")


def test_criterion_10_loss_ablation(bench):
    _, new_ce = bench.mean_accs("lasp-v")
    _, new_l1 = bench.mean_accs("l1")
    _, new_l2 = bench.mean_accs("l2")
    ok = new_ce >= new_l1 and new_ce >= new_l2
    report(10, "cross-entropy matches or beats L1/L2 regression on new classes",
           ok, f"ce {new_ce:.2f} vs l1 {new_l1:.2f}, l2 {new_l2:.2f}")


def test_criterion_11_schedule_and_determinism(small_enc, tmp_path):
    from lasp.trainer import learning_rate_at, save_checkpoint
    total, warmup, lr = 101, 10, 0.002
    sched_ok = (abs(learning_rate_at(warmup - 1, total, warmup, lr) - 0.002) <= 1e-9
                and abs(learning_rate_at(total - 1, total, warmup, lr)) <= 1e-9
                and abs(learning_rate_at(warmup + 45, total, warmup, lr)
                        - 0.001) <= 1e-9)

    digests = []
    for i in range(2):
        model, _ = _fifty_step_run(small_enc, ln_finetune=False)
        from lasp.trainer import TrainConfig
        path = tmp_path / f"rep{i}.bin"
        save_checkpoint(path, model, TrainConfig(groups=2), 50)
        digests.append(path.read_bytes())
    ok = sched_ok and digests[0] == digests[1]
    report(11, "schedule endpoints exact; repeated runs bitwise identical",
           ok, f"schedule {'ok' if sched_ok else 'bad'}, "
           f"checkpoints {'equal' if digests[0] == digests[1] else 'differ'}")
