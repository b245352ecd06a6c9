import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lasp
from lasp.autodiff import no_grad
from lasp.data import _class_word_pool
from lasp.encoders import EncoderConfig
from lasp.errors import ConfigError, DataError, DivergenceError
from lasp.model import PromptedClip
from lasp.prompts import (ClassVocabulary, init_prompts, load_template_bank,
                          split_templates)
from lasp.serialization import load_tensors, save_tensors
from lasp.trainer import (FewShotDataset, TrainConfig, Trainer, TrainLog,
                          learning_rate_at, load_checkpoint, sample_few_shot,
                          save_checkpoint)

NAMES = ["oak", "rocket", "violet"]


def tiny_setup(small_enc, groups=2, **cfg_over):
    prompts = init_prompts(groups, 2, small_enc.d_tok, small_enc.d, 0)
    bank = split_templates(load_template_bank("6"), groups, 0)
    model = PromptedClip(small_enc, prompts, bank)
    defaults = dict(epochs=1, warmup_epochs=0, batch_size=4, lr=0.01,
                    groups=groups, shots=2)
    defaults.update(cfg_over)
    cfg = TrainConfig(**defaults)
    trainer = Trainer(model, ClassVocabulary(list(NAMES)), cfg)
    return model, trainer, cfg


def tiny_data(n_per=3, seed=0):
    rng = np.random.default_rng(seed)
    images = rng.random((n_per * len(NAMES), 16, 16, 3))
    labels = np.repeat(np.arange(len(NAMES)), n_per)
    return FewShotDataset(images, labels, "base-train")


# -- config validation ---------------------------------------------------------


@pytest.mark.parametrize("kw", [dict(lr=0.0), dict(batch_size=0),
                                dict(epochs=-1), dict(shots=0),
                                dict(groups=0), dict(warmup_epochs=-1),
                                dict(loss_kind="huber"), dict(clip_norm=0.0),
                                dict(epochs=2, warmup_epochs=5),
                                dict(lr=float("nan")), dict(lr=float("inf")),
                                dict(alpha_vl=float("inf")),
                                dict(alpha_tt=float("nan")),
                                dict(clip_norm=float("nan")),
                                dict(divergence_limit=float("nan"))])
def test_train_config_rejects_bad_values(kw):
    base = dict(epochs=1, warmup_epochs=0)
    base.update(kw)
    with pytest.raises(ConfigError):
        TrainConfig(**base)


def test_trainer_rejects_group_mismatch(small_enc):
    prompts = init_prompts(2, 2, small_enc.d_tok, small_enc.d, 0)
    bank = split_templates(load_template_bank("6"), 2, 0)
    model = PromptedClip(small_enc, prompts, bank)
    with pytest.raises(ConfigError):
        Trainer(model, ClassVocabulary(NAMES), TrainConfig(groups=3))


# -- schedule ------------------------------------------------------------------


def test_learning_rate_schedule_endpoints():
    total, warmup, lr = 101, 10, 0.002
    assert learning_rate_at(warmup - 1, total, warmup, lr) == pytest.approx(lr, abs=1e-9)
    assert learning_rate_at(total - 1, total, warmup, lr) == pytest.approx(0.0, abs=1e-9)
    mid = warmup + (total - 1 - warmup) // 2
    assert learning_rate_at(mid, total, warmup, lr) == pytest.approx(lr / 2, abs=1e-9)
    # one step after warmup: it is the last, and its rate is 0
    assert learning_rate_at(warmup, warmup + 1, warmup, lr) == 0.0


def test_learning_rate_warmup_ramp():
    lrs = [learning_rate_at(s, 100, 10, 1.0) for s in range(10)]
    assert lrs == sorted(lrs)
    assert lrs[0] == pytest.approx(0.1)


def test_learning_rate_monotone_decay_after_warmup():
    lrs = [learning_rate_at(s, 50, 5, 1.0) for s in range(5, 50)]
    assert all(a >= b for a, b in zip(lrs, lrs[1:]))


def test_learning_rate_rejects_out_of_range():
    with pytest.raises(ConfigError):
        learning_rate_at(10, 10, 0, 1.0)


# -- few-shot sampling ---------------------------------------------------------


def test_sample_few_shot_counts_and_determinism():
    data = tiny_data(n_per=5)
    a = sample_few_shot(data.images, data.labels, shots=2, seed=3)
    b = sample_few_shot(data.images, data.labels, shots=2, seed=3)
    assert np.array_equal(a.images, b.images)
    assert [int((a.labels == c).sum()) for c in range(3)] == [2, 2, 2]
    c = sample_few_shot(data.images, data.labels, shots=2, seed=4)
    assert not np.array_equal(a.images, c.images)


def test_sample_few_shot_insufficient():
    data = tiny_data(n_per=1)
    with pytest.raises(DataError):
        sample_few_shot(data.images, data.labels, shots=2, seed=0)


def test_trainer_rejects_colliding_virtual_class(small_enc):
    with pytest.raises(DataError):
        tiny_setup(small_enc, virtual_classes=("oak",))


# -- training mechanics --------------------------------------------------------


def test_fit_changes_prompts_and_logs(small_enc):
    model, trainer, _ = tiny_setup(small_enc, epochs=2)
    before = model.prompt_set.vectors.data.copy()
    log = trainer.fit(tiny_data())
    assert not np.array_equal(before, model.prompt_set.vectors.data)
    assert len(log.rows) == 2 * 3   # 9 samples / batch 4 -> 3 steps/epoch
    assert all(np.isfinite(r[-1]) for r in log.rows)


def test_log_rows_end_in_gnorm_and_clip_scale(small_enc):
    # grad norms here run from about 0.02 to 0.3: some steps clip, some not
    _, trainer, cfg = tiny_setup(small_enc, epochs=2, clip_norm=0.1)
    log = trainer.fit(tiny_data())
    gnorms = np.array([r[6] for r in log.rows])
    assert (gnorms > 0).all() and np.isfinite(gnorms).all()
    for r, line in zip(log.rows, log.lines()):
        assert r[7] == min(1.0, cfg.clip_norm / r[6])
        assert line.split(", ")[6:] == [f"{r[6]:.10g}", f"{r[7]:.10g}"]
    assert min(r[7] for r in log.rows) < 1.0 == max(r[7] for r in log.rows)


# Minor page faults per step over a second fit of a train-text-sized set-up
# (default encoder, G = 3, 10 base + 20 virtual names, batch 16).
FAULTS_PER_STEP = """
import resource
import numpy as np
from lasp.data import _class_word_pool
from lasp.encoders import IMAGE_SHAPE, EncoderConfig
from lasp.model import PromptedClip
from lasp.prompts import (ClassVocabulary, init_prompts, load_template_bank,
                          split_templates)
from lasp.trainer import FewShotDataset, TrainConfig, Trainer

names = _class_word_pool()[:30]
enc = EncoderConfig()
model = PromptedClip(enc, init_prompts(3, 4, enc.d_tok, enc.d, 0),
                     split_templates(load_template_bank("6"), 3, 0))
cfg = TrainConfig(epochs=5, warmup_epochs=0, lr=0.02, batch_size=16, groups=3,
                  virtual_classes=tuple(names[10:]))
trainer = Trainer(model, ClassVocabulary(names[:10]), cfg)
rng = np.random.default_rng(0)
data = FewShotDataset(rng.random((160,) + IMAGE_SHAPE),
                      np.repeat(np.arange(10), 16), "base-train")
trainer.fit(data)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
log = trainer.fit(data)
after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
print((after - before) / len(log.rows))
"""


# Minor page faults of a second no-grad encode of 1,000 images (16 chunks).
FAULTS_PER_ENCODE = """
import resource
import numpy as np
from lasp.autodiff import no_grad
from lasp.encoders import IMAGE_SHAPE, EncoderConfig
from lasp.model import PromptedClip
from lasp.prompts import init_prompts, load_template_bank, split_templates

enc = EncoderConfig()
model = PromptedClip(enc, init_prompts(1, 4, enc.d_tok, enc.d, 0),
                     split_templates(load_template_bank("6"), 1, 0))
images = np.random.default_rng(0).random((1000,) + IMAGE_SHAPE)
with no_grad():
    model.encode_images(images)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    model.encode_images(images)
    after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
print(after - before)
"""


def run_fresh(snippet: str) -> float:
    """The number ``snippet`` prints, run in a fresh process: an earlier
    test's tower build has already raised the thresholds in this one."""
    src = str(Path(lasp.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, (
                   src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c",
                          snippet], env=env, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return float(out.stdout)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the allocator settings exist on glibc only")
def test_fit_keeps_freed_step_buffers_in_the_heap():
    # Without the settings, glibc returns a step's freed buffers to the OS
    # and the next step faults them in again: about 1,200 faults a step.
    assert run_fresh(FAULTS_PER_STEP) < 100


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the allocator settings exist on glibc only")
def test_encoding_keeps_freed_chunk_buffers_in_the_heap():
    # A no-grad block frees its activations when it returns. Without the
    # settings a tower build makes, each 64-image chunk faults them in
    # again: about 16,000 faults per 1,000 images.
    assert run_fresh(FAULTS_PER_ENCODE) < 100


def tape_nodes(root) -> int:
    """Tape nodes reachable from ``root``, leaves included."""
    seen, todo = set(), [root]
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen.add(id(node))
            todo.extend(node._parents)
    return len(seen)


def step_tape_nodes(groups, n_virtual, batch, ln_finetune) -> int:
    """Tape nodes of one step's losses: default encoder, 10 base one-word
    names plus ``n_virtual`` virtual ones, frozen vision features unless
    ``ln_finetune`` (then images)."""
    names = _class_word_pool()[:10 + n_virtual]
    enc = EncoderConfig()
    model = PromptedClip(enc, init_prompts(groups, 4, enc.d_tok, enc.d, 0),
                         split_templates(load_template_bank("6"), groups, 0))
    cfg = TrainConfig(batch_size=batch, groups=groups, ln_finetune=ln_finetune,
                      virtual_classes=tuple(names[10:]))
    trainer = Trainer(model, ClassVocabulary(names[:10]), cfg)
    rng = np.random.default_rng(0)
    x = (rng.random((batch, 16, 16, 3)) if ln_finetune
         else rng.standard_normal((batch, enc.d)))
    _, _, total = trainer._losses(x, np.arange(batch) % 10)
    return tape_nodes(total)


def test_train_text_step_tape_size():
    # A train-text-shaped step (G = 3, 20 virtual names, batch 16): the two
    # leaves, the prompt assembly, one text pass (reshape, position add, two
    # block nodes, the final LayerNorm, the pooled projection), the base
    # slice and bias shift, one node per loss head, and the three nodes of
    # the weighted sum. History: 142 nodes while each transformer block was
    # 26 nodes, then 92 while the loss heads and the class-row glue were op
    # by op.
    assert step_tape_nodes(3, 20, 16, ln_finetune=False) == 16


def test_train_vision_step_tape_size():
    # A train-vision-shaped step (G = 1, no virtual names, batch 64, vision
    # LayerNorm affines trained): the train-text step's nodes over one group,
    # without the base slice (every name is a base name), plus the vision
    # pass (two block nodes, the final LayerNorm, the pooled projection) and
    # its ten LayerNorm-affine leaves. History: 72 nodes with the loss heads
    # and the class-row glue op by op.
    assert step_tape_nodes(1, 0, 64, ln_finetune=True) == 29


def test_fit_without_the_image_term_leaves_the_bias_alone(small_enc):
    # L_TT reads the raw rows, so with alpha_vl = 0 the shared bias gets no
    # gradient and the step skips it
    model, trainer, _ = tiny_setup(small_enc, alpha_vl=0.0)
    before = model.prompt_set.vectors.data.copy()
    log = trainer.fit(tiny_data())
    assert not model.prompt_set.bias.data.any()
    assert not np.array_equal(model.prompt_set.vectors.data, before)
    assert [row[3] for row in log.rows] == [0.0] * 3


def test_fit_is_deterministic(small_enc):
    outs = []
    for _ in range(2):
        model, trainer, _ = tiny_setup(small_enc, epochs=2)
        trainer.fit(tiny_data())
        outs.append((model.prompt_set.vectors.data.copy(),
                     model.prompt_set.bias.data.copy()))
    assert np.array_equal(outs[0][0], outs[1][0])
    assert np.array_equal(outs[0][1], outs[1][1])


def test_image_independence_of_tt_loss(small_enc):
    """L_TT ignores the image batch entirely."""
    model, trainer, _ = tiny_setup(small_enc)
    rng = np.random.default_rng(0)
    labels = np.array([0, 1, 2])
    vals = set()
    for _ in range(10):
        images = rng.random((3, 16, 16, 3))
        _, l_tt, _ = trainer._losses(images, labels)
        vals.add(l_tt.item())
    assert len(vals) == 1


def test_virtual_classes_extend_tt_anchor_set(small_enc):
    _, plain, _ = tiny_setup(small_enc)
    _, virt, _ = tiny_setup(small_enc, virtual_classes=("fern",))
    assert virt.anchors.shape[1] == plain.anchors.shape[1] + 1
    assert virt.vocabulary.all_names == NAMES + ["fern"]


def test_gradient_clipping_bounds_update(small_enc):
    model, trainer, cfg = tiny_setup(small_enc, clip_norm=1e-9, lr=1.0)
    before = {k: p.data.copy() for k, p in trainer.params.items()}
    data = tiny_data()
    trainer.train_step(data.images[:4], data.labels[:4], lr=1.0)
    total_sq = sum(float(((p.data - before[k]) ** 2).sum())
                   for k, p in trainer.params.items())
    # update norm <= lr * clip_norm (up to rounding)
    assert np.sqrt(total_sq) <= 1e-9 * 1.0 * (1 + 1e-6)


def test_divergence_raises(small_enc):
    model, trainer, _ = tiny_setup(small_enc, divergence_limit=1e-12)
    data = tiny_data()
    with pytest.raises(DivergenceError) as err:
        trainer.train_step(data.images[:4], data.labels[:4], lr=0.01)
    l_vl, l_tt, total = (t.item() for t in
                         trainer._losses(data.images[:4], data.labels[:4]))
    assert err.value.value == total
    assert str(err.value) == (f"divergence at step 0: total loss {total} "
                              f"(l_vl {l_vl}, l_tt {l_tt})")


def test_non_finite_update_raises_before_any_change(small_enc):
    model, trainer, _ = tiny_setup(small_enc, clip_norm=float("inf"))
    before = {k: p.data.copy() for k, p in trainer.params.items()}
    data = tiny_data()
    with pytest.raises(DivergenceError, match="update norm"):
        trainer.train_step(data.images[:4], data.labels[:4], lr=float("inf"))
    for k, p in trainer.params.items():
        assert np.array_equal(p.data, before[k]), k


def test_non_finite_update_names_the_non_finite_gradients(small_enc,
                                                         monkeypatch):
    model, trainer, _ = tiny_setup(small_enc)
    ps = model.prompt_set
    # finite loss, infinite bias gradient (d sqrt(x) / dx at x = 0)
    monkeypatch.setattr(trainer, "_losses", lambda *a: (
        None, None, ps.bias.pow(0.5).sum() + (ps.vectors * 0.0).sum()))
    data = tiny_data()
    with pytest.raises(DivergenceError,
                       match=r"update norm nan \(non-finite gradient in "
                             r"prompts\.bias\)$"), np.errstate(divide="ignore"):
        trainer.train_step(data.images[:4], data.labels[:4], lr=0.01)
    assert not ps.bias.data.any()


def huge_prompts(trainer, monkeypatch):
    trainer.model.prompt_set.vectors.data *= 1e200


def loss_with_huge_slope(trainer, monkeypatch):
    bias = trainer.model.prompt_set.bias
    # zero at bias = 0, slope 1e400
    monkeypatch.setattr(trainer, "_losses", lambda *a: (
        None, None, (bias * 1e200 * 1e200).sum()))


@pytest.mark.parametrize("stage, corrupt", [("forward", huge_prompts),
                                            ("backward", loss_with_huge_slope)])
def test_overflow_raises_before_any_change(small_enc, monkeypatch, stage,
                                           corrupt):
    model, trainer, _ = tiny_setup(small_enc)
    corrupt(trainer, monkeypatch)
    before = {k: p.data.copy() for k, p in trainer.params.items()}
    data = tiny_data()
    with pytest.raises(DivergenceError,
                       match=f"^divergence at step 5: overflow in the {stage} "
                             r"pass \(overflow encountered in multiply\)$"):
        trainer.train_step(data.images[:4], data.labels[:4], lr=0.01,
                           step_index=5)
    for k, p in trainer.params.items():
        assert np.array_equal(p.data, before[k]), k


def count_encodes(model, monkeypatch) -> list[int]:
    sizes = []
    encode = model.encode_images

    def counting(images):
        sizes.append(len(images))
        return encode(images)

    monkeypatch.setattr(model, "encode_images", counting)
    return sizes


def fit_with_image_batches(trainer, data) -> TrainLog:
    """``Trainer.fit``'s loop, handing each step its images."""
    cfg = trainer.config
    steps = math.ceil(len(data) / cfg.batch_size)
    rng = np.random.default_rng(cfg.seed)
    log, step = TrainLog(), 0
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(data))
        for b in range(steps):
            sel = order[b * cfg.batch_size : (b + 1) * cfg.batch_size]
            lr = learning_rate_at(step, cfg.epochs * steps,
                                  cfg.warmup_epochs * steps, cfg.lr)
            log.append(epoch, step, lr, trainer.train_step(
                data.images[sel], data.labels[sel], lr, step_index=step))
            step += 1
    return log


def test_fit_encodes_frozen_pool_once(small_enc, monkeypatch):
    data = tiny_data(n_per=4)      # 12 images, batches of 4: none holds one
    _, ref_trainer, _ = tiny_setup(small_enc, epochs=3)
    ref_log = fit_with_image_batches(ref_trainer, data)
    model, trainer, _ = tiny_setup(small_enc, epochs=3)
    sizes = count_encodes(model, monkeypatch)
    log = trainer.fit(data)
    assert sizes == [len(data)]
    assert log.rows == ref_log.rows
    for k, p in trainer.params.items():
        assert np.array_equal(p.data, ref_trainer.params[k].data), k


def test_fit_with_ln_finetune_encodes_every_step(small_enc, monkeypatch):
    data = tiny_data(n_per=4)
    model, trainer, _ = tiny_setup(small_enc, epochs=2, ln_finetune=True)
    sizes = count_encodes(model, monkeypatch)
    trainer.fit(data)
    assert sizes == [4] * 6
    with no_grad():
        feats = model.encode_images(data.images[:4]).data
    with pytest.raises(ConfigError, match="ln_finetune"):
        trainer.train_step(feats, data.labels[:4], lr=0.01)


def test_frozen_features_follow_the_vision_ln_affines(tmp_path, small_enc):
    # the trained model and the fresh one both read their features under the
    # untrained affines first, then have them rewritten in place
    data = tiny_data()
    model, trainer, cfg = tiny_setup(small_enc, epochs=2, ln_finetune=True)
    untrained = model.frozen_features(data)
    trainer.fit(data)
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, model, cfg, steps=6)
    fresh = tiny_setup(small_enc)[0]
    assert fresh.frozen_features(data) is untrained
    load_checkpoint(path, fresh)
    for m in (model, fresh):
        feats = m.frozen_features(data)
        with no_grad():
            plain = m.encode_images(data.images).data
        assert feats.tobytes() == plain.tobytes()
        assert not np.array_equal(feats, untrained)


def test_parameter_scope_ln_off_vs_on(small_enc):
    for ln_on in (False, True):
        model, trainer, _ = tiny_setup(small_enc, ln_finetune=ln_on, epochs=1)
        snap = {k: v.data.copy() for k, v in
                {**model.text_encoder.named_params(),
                 **model.vision_encoder.named_params()}.items()}
        trainer.fit(tiny_data())
        after = {**model.text_encoder.named_params(),
                 **model.vision_encoder.named_params()}
        for k, v in after.items():
            is_vision_ln = k.startswith("vision.") and ("ln" in k)
            if ln_on and is_vision_ln:
                assert not np.array_equal(snap[k], v.data), k
            else:
                assert np.array_equal(snap[k], v.data), k


# -- checkpoints ---------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path, small_enc):
    model, trainer, cfg = tiny_setup(small_enc, epochs=1)
    trainer.fit(tiny_data())
    path = tmp_path / "ck.bin"
    save_checkpoint(path, model, cfg, steps=3)
    fresh, _, _ = tiny_setup(small_enc)
    meta = load_checkpoint(path, fresh)
    assert meta["steps"] == "3"
    assert np.array_equal(fresh.prompt_set.vectors.data,
                          model.prompt_set.vectors.data)
    assert np.array_equal(fresh.prompt_set.bias.data,
                          model.prompt_set.bias.data)


def test_checkpoint_describes_its_configuration(tmp_path, small_enc):
    model, _, cfg = tiny_setup(small_enc)
    path = tmp_path / "ck.bin"
    save_checkpoint(path, model, cfg, steps=0)
    _, meta = load_tensors(path)
    assert {k: meta[k] for k in ("groups", "m_prompts", "d_tok", "d",
                                 "n_layers", "n_heads", "max_len",
                                 "encoder_seed", "templates")} == {
        "groups": "2", "m_prompts": "2", "d_tok": str(small_enc.d_tok),
        "d": str(small_enc.d), "n_layers": str(small_enc.n_layers),
        "n_heads": str(small_enc.n_heads), "max_len": str(small_enc.max_len),
        "encoder_seed": str(small_enc.seed), "templates": "6"}


def test_checkpoint_bitwise_reproducible(tmp_path, small_enc):
    paths = []
    for i in range(2):
        model, trainer, cfg = tiny_setup(small_enc, epochs=2)
        trainer.fit(tiny_data())
        p = tmp_path / f"ck{i}.bin"
        save_checkpoint(p, model, cfg, steps=6)
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_checkpoint_missing_tensor_rejected(tmp_path, small_enc):
    model, _, cfg = tiny_setup(small_enc)
    path = tmp_path / "ck.bin"
    save_checkpoint(path, model, cfg, steps=0)
    named, meta = load_tensors(path)
    del named["prompts.bias"]
    save_tensors(path, named, meta)
    with pytest.raises(DataError, match=r"prompts\.bias should have shape "
                                        r"\(8,\), found nothing"):
        load_checkpoint(path, tiny_setup(small_enc)[0])


def test_checkpoint_non_finite_tensor_rejected(tmp_path, small_enc):
    model, _, cfg = tiny_setup(small_enc)
    path = tmp_path / "ck.bin"
    save_checkpoint(path, model, cfg, steps=0)
    named, meta = load_tensors(path)
    named["prompts.vectors"] += 1.0
    named["prompts.bias"][3] = np.nan
    save_tensors(path, named, meta)
    fresh, _, _ = tiny_setup(small_enc)
    vectors = fresh.prompt_set.vectors.data.copy()
    # the finite vectors come first, and must not be copied either
    with pytest.raises(DataError, match=r"prompts\.bias holds non-finite"):
        load_checkpoint(path, fresh)
    assert np.array_equal(fresh.prompt_set.vectors.data, vectors)
    assert not fresh.prompt_set.bias.data.any()


def test_checkpoint_shape_mismatch_rejected(tmp_path, small_enc):
    model, _, cfg = tiny_setup(small_enc, groups=1)
    path = tmp_path / "ck.bin"
    save_checkpoint(path, model, cfg, steps=0)
    fresh, _, _ = tiny_setup(small_enc, groups=2)
    before = fresh.prompt_set.vectors.data.copy()
    with pytest.raises(DataError, match=r"prompts\.vectors should have shape "
                                        r"\(2, 2, 8\), found \(1, 2, 8\)"):
        load_checkpoint(path, fresh)
    assert np.array_equal(fresh.prompt_set.vectors.data, before)
