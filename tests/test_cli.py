import json
import os

import numpy as np
import pytest

from lasp.cli import (DEFAULTS, EXIT_DATA, EXIT_DIVERGENCE, EXIT_OK, EXIT_USAGE,
                      RunContext, main, parse_config_text, resolve_config)
from lasp.encoders import EncoderConfig
from lasp.data import (_class_word_pool, load_dataset, load_manifest,
                       write_image_npt)
from lasp.errors import ConfigError, DataError
from lasp.prompts import init_prompts
from lasp.serialization import load_tensors, save_tensors

FAST = ["--set", "center_steps=20", "--set", "epochs=1",
        "--set", "warmup_epochs=0", "--set", "n_base=2", "--set", "n_new=2",
        "--set", "samples_per_class=3", "--set", "test_samples=2",
        "--set", "shots=2", "--set", "batch_size=4", "--set", "groups=2",
        "--set", "templates=6"]


def run(args, tmp_path, name="run"):
    out = tmp_path / name
    return main(args + ["--out", str(out)]), out


# -- config handling -----------------------------------------------------------


def test_parse_config_text():
    cfg = parse_config_text("# comment\nlr = 0.5\n\nepochs=3  # trailing\n")
    assert cfg == {"lr": "0.5", "epochs": "3"}
    with pytest.raises(ConfigError):
        parse_config_text("not a pair")


def test_resolve_config_precedence(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("lr = 0.5\nseed = 7\n")
    cfg = resolve_config(str(path), ["lr=0.25"], seed=9)
    assert cfg["lr"] == "0.25"
    assert cfg["seed"] == "9"
    assert cfg["epochs"] == DEFAULTS["epochs"]


def test_resolve_config_unknown_key():
    with pytest.raises(ConfigError):
        resolve_config(None, ["bogus=1"], None)


def test_resolve_config_missing_file():
    with pytest.raises(DataError):
        resolve_config("/nonexistent/path.cfg", [], None)


# -- commands ------------------------------------------------------------------


def test_train_writes_run_directory(tmp_path):
    code, out = run(["train", "--seed", "0"] + FAST, tmp_path)
    assert code == EXIT_OK
    for artifact in ("config.echo", "checkpoint.bin", "train.log",
                     "report.txt", "report.kv"):
        assert (out / artifact).exists(), artifact
    assert (out / "matrices" / "centroid_distance.txt").exists()
    echo = (out / "config.echo").read_text()
    assert "command = train" in echo and "seed = 0" in echo
    assert "epochs = 1" in echo


def test_train_epochs_zero_checkpoint_equals_init(tmp_path):
    args = ["train", "--seed", "1"] + FAST
    code0, out0 = run(args + ["--set", "epochs=0", "--set", "warmup_epochs=0"],
                      tmp_path, "zero")
    assert code0 == EXIT_OK
    named, _ = load_tensors(out0 / "checkpoint.bin")
    # rebuild the untrained prompts the same way the CLI does
    ctx = RunContext(resolve_config(None, FAST[1::2], 1))
    model = ctx.build_model()
    assert np.array_equal(named["prompts.vectors"],
                          model.prompt_set.vectors.data)
    assert not named["prompts.bias"].any()


def test_empty_prompt_words_start_from_gaussian_vectors(tmp_path):
    code, out = run(["train", "--seed", "1"] + FAST
                    + ["--set", "prompt_words=", "--set", "epochs=0"], tmp_path)
    assert code == EXIT_OK
    named, _ = load_tensors(out / "checkpoint.bin")
    enc = EncoderConfig()
    # FAST trains groups=2; m_prompts keeps its default
    expected = init_prompts(2, int(DEFAULTS["m_prompts"]), enc.d_tok, enc.d, 1)
    assert np.array_equal(named["prompts.vectors"], expected.vectors.data)


def test_eval_against_checkpoint(tmp_path):
    code, train_out = run(["train", "--seed", "0"] + FAST, tmp_path, "t")
    assert code == EXIT_OK
    code, eval_out = run(["eval", "--seed", "0"] + FAST
                         + ["--set", f"checkpoint={train_out/'checkpoint.bin'}"],
                         tmp_path, "e")
    assert code == EXIT_OK
    train_kv = (train_out / "report.kv").read_text()
    eval_kv = (eval_out / "report.kv").read_text()
    assert train_kv == eval_kv


def test_eval_malformed_checkpoint_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"garbage")
    code, _ = run(["eval"] + FAST + ["--set", f"checkpoint={bad}"], tmp_path)
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "not a weight file" in err


def test_eval_checkpoint_with_other_groups_is_data_error(tmp_path, capsys):
    code, train_out = run(["train", "--seed", "0"] + FAST
                          + ["--set", "groups=1"], tmp_path, "t")
    assert code == EXIT_OK
    code, _ = run(["eval", "--seed", "0"] + FAST
                  + ["--set", f"checkpoint={train_out/'checkpoint.bin'}"],
                  tmp_path, "e")
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "prompts.vectors" in err


def test_eval_non_finite_checkpoint_is_data_error(tmp_path, capsys):
    code, train_out = run(["train", "--seed", "0"] + FAST, tmp_path, "t")
    assert code == EXIT_OK
    named, meta = load_tensors(train_out / "checkpoint.bin")
    named["prompts.bias"][0] = np.nan
    bad = tmp_path / "nan.bin"
    save_tensors(bad, named, meta)
    capsys.readouterr()
    code, _ = run(["eval", "--seed", "0"] + FAST
                  + ["--set", f"checkpoint={bad}"], tmp_path, "e")
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "prompts.bias holds non-finite" in err


@pytest.mark.parametrize("command, setting, message", [
    pytest.param("eval", "mode=bogus", "mode='bogus'", id="eval-mode"),
    pytest.param("ablate-templates", "prompt_init=gauss",
                 "unknown config key 'prompt_init'",
                 id="ablate-templates-prompt_init"),
    pytest.param("train", "lr=abc", "lr='abc'", id="train-lr-not-a-number"),
    pytest.param("train", "loss_kind=huber", "'huber'", id="train-loss_kind"),
    pytest.param("train", "lr=-1", "must be positive", id="train-lr-negative"),
    pytest.param("eval", "m_prompts=0", "m_prompts", id="eval-m_prompts"),
    pytest.param("distract", "distractors=x", "distractors='x'",
                 id="distract-distractors"),
    pytest.param("train", "templates=1", "cannot split 1 templates",
                 id="train-templates-below-groups"),
    pytest.param("eval", "prompt_words=!!!", "yielded no tokens",
                 id="eval-prompt_words"),
    pytest.param("train", "lr=nan", "must be finite", id="train-lr-nan"),
    pytest.param("train", "clip_norm=nan", "must not be NaN",
                 id="train-clip_norm-nan"),
    pytest.param("train", "alpha_tt=nan", "must be finite",
                 id="train-alpha_tt-nan"),
    pytest.param("train", "alpha_vl=inf", "must be finite",
                 id="train-alpha_vl-inf"),
    pytest.param("train", "templates=/nonexistent.txt",
                 "cannot read template file /nonexistent.txt",
                 id="train-templates-missing-file"),
    pytest.param("train", "templates=/", "Is a directory",
                 id="train-templates-directory"),
    pytest.param("train", "n_base=0", "n_base must be >= 1", id="train-n_base-0"),
    pytest.param("train", "n_new=0", "n_new must be >= 1", id="train-n_new-0"),
    pytest.param("train", "samples_per_class=0",
                 "samples_per_class must be >= 1",
                 id="train-samples_per_class-0"),
    pytest.param("eval", "test_samples=0", "test_samples must be >= 1",
                 id="eval-test_samples-0"),
    pytest.param("train", "n_base=300", "exceeds the 168 class-word pool",
                 id="train-n_base-above-pool"),
    pytest.param("train", "center_steps=-1", "center_steps must be >= 0",
                 id="train-center_steps-negative"),
    pytest.param("train", "separation=nan", "separation must be positive",
                 id="train-separation-nan"),
    pytest.param("train", "context_shift=1.5", "context_shift must lie",
                 id="train-context_shift-above-1"),
    pytest.param("train", "m_prompts=6", "m_prompts=6 exceeds the 4 words",
                 id="train-m_prompts-above-prompt-words"),
    pytest.param("distract", "distractors=-1", "distractors must be >= 0",
                 id="distract-distractors-negative"),
    pytest.param("train", "seed=-1", "seed must be >= 0",
                 id="train-seed-negative"),
    pytest.param("fixture", "data_seed=-1", "fixture seed must be >= 0",
                 id="fixture-data_seed-negative"),
    pytest.param("fixture", "n_base=0", "n_base must be >= 1",
                 id="fixture-n_base-0"),
    pytest.param("train", "n_base=1", "n_base must be >= 2", id="train-n_base-1"),
    pytest.param("train", "shots=25", "shots=25 exceeds samples_per_class=20",
                 id="train-shots-above-samples_per_class"),
    pytest.param("train", "m_prompts=30", "m_prompts=30 leaves no room",
                 id="train-m_prompts-above-max_len"),
])
def test_bad_choice_key_exits_2_before_fixture(tmp_path, capsys, monkeypatch,
                                              command, setting, message):
    import lasp.cli
    def no_fixture(*a, **k):
        raise AssertionError("fixture built before config validation")
    monkeypatch.setattr(lasp.cli, "make_synthetic_dataset", no_fixture)
    code, _ = run([command, "--set", setting], tmp_path)
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err


def test_non_finite_update_exits_4(tmp_path, capsys):
    code, _ = run(["train"] + FAST + ["--set", "epochs=2", "--set", "lr=1e308",
                                      "--set", "clip_norm=inf"], tmp_path)
    assert code == EXIT_DIVERGENCE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "update norm" in err


def test_overflowing_step_exits_4(tmp_path, capsys):
    code, out = run(["train"] + FAST + ["--set", "epochs=2", "--set", "lr=1e200",
                                        "--set", "clip_norm=inf"], tmp_path)
    assert code == EXIT_DIVERGENCE
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "divergence at step 1: overflow in the forward pass" in err
    assert not (out / "checkpoint.bin").exists()


@pytest.mark.parametrize("key", ["d", "d_tok", "n_layers", "n_heads",
                                 "max_len", "encoder_seed"])
def test_eval_checkpoint_for_another_encoder_is_data_error(tmp_path, capsys,
                                                           key):
    code, train_out = run(["train", "--seed", "0"] + FAST, tmp_path, "t")
    assert code == EXIT_OK
    named, meta = load_tensors(train_out / "checkpoint.bin")
    meta[key] = str(int(meta[key]) + 1)
    other = tmp_path / "other.bin"
    save_tensors(other, named, meta)
    capsys.readouterr()
    code, _ = run(["eval", "--seed", "0"] + FAST
                  + ["--set", f"checkpoint={other}"], tmp_path, "e")
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"written for {key}={meta[key]}," in err


def test_eval_zero_shot_mode(tmp_path):
    code, out = run(["eval", "--seed", "0"] + FAST + ["--set", "mode=zero-shot"],
                    tmp_path)
    assert code == EXIT_OK
    assert "base_acc" in (out / "report.kv").read_text()


def test_eval_missing_checkpoint_is_data_error(tmp_path):
    code, _ = run(["eval"] + FAST + ["--set", "checkpoint=/missing.bin"],
                  tmp_path)
    assert code == EXIT_DATA


def test_ablate_loss_grid(tmp_path):
    code, out = run(["ablate-loss", "--seed", "0"] + FAST, tmp_path)
    assert code == EXIT_OK
    kv = (out / "report.kv").read_text()
    for kind in ("ce", "l1", "l2"):
        assert f"harmonic_mean, {kind}," in kv


def test_ablate_components_ladder(tmp_path):
    code, out = run(["ablate-components", "--seed", "0"] + FAST, tmp_path)
    assert code == EXIT_OK
    kv = (out / "report.kv").read_text()
    for name in ("baseline", "+text-to-text", "+grouped", "+align", "+virtual"):
        assert f"harmonic_mean, {name}," in kv


def test_distract_reports_drop_and_recovery(tmp_path):
    code, out = run(["distract", "--seed", "0"] + FAST
                    + ["--set", "distractors=2"], tmp_path)
    assert code == EXIT_OK
    kv = (out / "report.kv").read_text()
    assert "distractor_drop" in kv and "distractor_recovered" in kv


def test_distract_needs_enough_pool_words(tmp_path, capsys):
    code, _ = run(["distract"] + FAST + ["--set", "distractors=200"], tmp_path)
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "not enough pool words" in err


def test_distract_ignores_configured_virtual_classes(tmp_path):
    args = ["distract", "--seed", "1"] + FAST + ["--set", "distractors=2"]
    code, plain = run(args, tmp_path, "plain")
    assert code == EXIT_OK
    code, vnew = run(args + ["--set", "virtual=new"], tmp_path, "vnew")
    assert code == EXIT_OK
    assert (vnew / "report.kv").read_bytes() == (plain / "report.kv").read_bytes()


def test_variants_use_the_contexts_class_names():
    ctx = RunContext(resolve_config(None, FAST[1::2] + [
        "distractors=2", "virtual=new"], None))
    grid = ctx.variants()
    assert list(grid) == ["baseline", "lasp", "lasp-v", "l1", "l2",
                          "lasp-v+distractors"]
    new = tuple(ctx.new_names)
    assert grid["baseline"] == dict(alpha_tt=0.0, virtual_classes=())
    assert grid["lasp"] == dict(virtual_classes=())
    assert grid["lasp-v"] == dict(virtual_classes=new)
    assert grid["l1"] == dict(loss_kind="l1", virtual_classes=new)
    assert grid["l2"] == dict(loss_kind="l2", virtual_classes=new)
    assert grid["lasp-v+distractors"] == dict(
        virtual_classes=new + tuple(ctx.distractor_names()))


def test_template_longer_than_the_tokens_exits_2(tmp_path, capsys):
    path = tmp_path / "templates.txt"
    long = " ".join(["the"] * 30) + " {}"
    path.write_text(f"a photo of {{}}\n{long}\n")
    code, _ = run(["train"] + FAST + ["--set", f"templates={path}"], tmp_path)
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"template {long!r} with class '" in err
    assert "has 31 words; at most 30 fit in 32 tokens" in err


def pool_order(seed=0):
    pool = _class_word_pool()
    return [pool[int(i)] for i in np.random.default_rng(seed).permutation(len(pool))]


def test_distractors_continue_the_fixture_draw():
    ctx = RunContext(resolve_config(None, FAST[1::2] + ["distractors=2"], None))
    order = pool_order()
    assert ctx.base_names + ctx.new_names == order[:4]
    assert ctx.distractor_names() == order[4:6]


def write_manifest(path, base, new, image=np.zeros((16, 16, 3))):
    """A manifest of ``base`` and ``new`` classes, each with ``image`` as
    its one train and one test image."""
    write_image_npt(path.parent / "img.npt", image)
    files = {"train": ["img.npt"], "test": ["img.npt"]}
    path.write_text(json.dumps({"base_classes": base, "new_classes": new,
                                "images": {n: files for n in base + new}}))
    return path


def test_distractors_never_name_a_manifest_class(tmp_path):
    order = pool_order()
    # the manifest takes the names the permutation draws first
    path = write_manifest(tmp_path / "manifest.json", order[:2], order[2:3])
    over = FAST[1::2] + [f"manifest={path}"]
    ctx = RunContext(resolve_config(None, over + ["distractors=2"], None))
    assert ctx.distractor_names() == order[3:5]
    every = RunContext(resolve_config(None, over + ["distractors=165"], None))
    assert every.distractor_names() == order[3:]
    too_many = RunContext(resolve_config(None, over + ["distractors=166"], None))
    with pytest.raises(DataError, match="not enough pool words"):
        too_many.distractor_names()


def test_fixture_writes_dataset(tmp_path, capsys):
    code, out = run(["fixture"] + FAST, tmp_path)
    assert code == EXIT_OK
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == f"wrote {out / 'manifest.json'}"
    manifest = load_manifest(out / "manifest.json")
    assert printed[1:] == [f"base classes: {', '.join(manifest.base_classes)}",
                           f"new classes:  {', '.join(manifest.new_classes)}"]
    assert len(manifest.base_classes) == len(manifest.new_classes) == 2
    splits = load_dataset(manifest)
    assert [len(splits[k]) for k in ("base-train", "base-test", "new-test")] \
        == [6, 4, 4]
    assert all(ds.images.shape[1:] == (16, 16, 3) for ds in splits.values())
    assert "command = fixture" in (out / "config.echo").read_text()
    assert not (out / "matrices").exists()


@pytest.mark.parametrize("mode", ["learned", "zero-shot"])
def test_eval_on_written_fixture_matches_in_memory(tmp_path, mode):
    code, data = run(["fixture"] + FAST, tmp_path, "data")
    assert code == EXIT_OK
    evals = ["eval", "--seed", "0"] + FAST + ["--set", f"mode={mode}"]
    code, mem = run(evals, tmp_path, "mem")
    assert code == EXIT_OK
    code, files = run(evals + ["--set", f"manifest={data / 'manifest.json'}"],
                      tmp_path, "files")
    assert code == EXIT_OK
    assert (files / "report.kv").read_bytes() == (mem / "report.kv").read_bytes()


@pytest.mark.parametrize("command", ["train", "fixture"])
def test_out_naming_a_file_exits_3(tmp_path, capsys, monkeypatch, command):
    import lasp.cli
    def no_fixture(*a, **k):
        raise AssertionError("fixture built for an unusable run directory")
    monkeypatch.setattr(lasp.cli, "make_synthetic_dataset", no_fixture)
    afile = tmp_path / "afile"
    afile.write_text("")
    assert main([command, "--out", str(afile)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"cannot create run directory {afile}" in err
    assert afile.read_text() == ""


def test_report_round_trip(tmp_path, capsys):
    code, out = run(["train", "--seed", "0"] + FAST, tmp_path)
    assert code == EXIT_OK
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == EXIT_OK
    printed = capsys.readouterr().out
    assert "base_acc" in printed


@pytest.mark.parametrize("content, message", [
    pytest.param(b"", "holds no report lines", id="empty"),
    pytest.param(None, "Is a directory", id="directory"),
    pytest.param("base_acc, caf\xe9, 1.0\n".encode("latin-1"),
                 "can't decode byte 0xe9", id="latin-1"),
])
def test_report_of_unreadable_kv_exits_3(tmp_path, capsys, content, message):
    kv = tmp_path / "report.kv"
    if content is None:
        kv.mkdir()
    else:
        kv.write_bytes(content)
    assert main(["report", "--out", str(tmp_path)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_report_without_out_is_usage_error():
    assert main(["report"]) == EXIT_USAGE


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_unknown_config_key_exits_2(tmp_path):
    code, _ = run(["train", "--set", "bogus=1"], tmp_path)
    assert code == EXIT_USAGE


def test_bad_manifest_exits_3(tmp_path, capsys):
    write_image_npt(tmp_path / "big.npt", np.zeros((32, 32, 3)))
    (tmp_path / "cut.ppm").write_bytes(b"P6\n16 16\n255\n" + bytes(100))
    write_image_npt(tmp_path / "ok.npt", np.zeros((16, 16, 3)))
    nan = np.zeros((16, 16, 3))
    nan[3, 4, 1] = np.nan
    write_image_npt(tmp_path / "nan.npt", nan)
    (tmp_path / "zero.ppm").write_bytes(b"P6\n16 16\n0\n" + bytes(768))
    (tmp_path / "deep.ppm").write_bytes(b"P6\n16 16\n65535\n" + bytes(1536))
    (tmp_path / "neg.npt").write_bytes(b"NPT1 -1 16 3\n" + bytes(8 * 768))
    split = {"train": ["big.npt"], "test": ["big.npt"]}
    ok = {"train": ["ok.npt"], "test": ["ok.npt"]}
    docs = {     # manifest -> what the one-line message must name
        "no-new": ({"base_classes": ["a"], "images": {"a": split}},
                   "new_classes"),
        "32x32": ({"base_classes": ["a"], "new_classes": ["b"],
                   "images": {"a": split, "b": split}}, "(32, 32, 3)"),
        "cut-ppm": ({"base_classes": ["a"], "new_classes": ["b"],
                     "images": {"a": {"train": ["cut.ppm"]}, "b": split}},
                    "truncated PPM"),
        "nan-npt": ({"base_classes": ["a"], "new_classes": ["b"],
                     "images": {"a": {"train": ["nan.npt"], "test": ["ok.npt"]},
                                "b": ok}},
                    "nan.npt: image holds non-finite"),
        "maxval-0": ({"base_classes": ["a"], "new_classes": ["b"],
                      "images": {"a": {"train": ["zero.ppm"],
                                       "test": ["ok.npt"]}, "b": ok}},
                     "zero.ppm: image holds non-finite"),
        "16-bit-ppm": ({"base_classes": ["a"], "new_classes": ["b"],
                        "images": {"a": {"train": ["deep.ppm"],
                                         "test": ["ok.npt"]}, "b": ok}},
                       "deep.ppm: PPM maxval 65535"),
        "negative-npt": ({"base_classes": ["a"], "new_classes": ["b"],
                          "images": {"a": {"train": ["neg.npt"],
                                           "test": ["ok.npt"]}, "b": ok}},
                         "neg.npt: raw-tensor shape (-1, 16, 3)"),
    }
    cases = [("/missing/manifest.json", "cannot read manifest")]
    for name, (doc, message) in docs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        cases.append((path, message))
    for path, message in cases:
        code, _ = run(["train", "--set", f"manifest={path}"], tmp_path)
        assert code == EXIT_DATA, path
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err, err


def test_manifest_with_one_base_class_exits_3(tmp_path, capsys):
    path = write_manifest(tmp_path / "one.json", ["oak"], ["fern"])
    code, out = run(["train", "--set", f"manifest={path}"], tmp_path)
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "has one base class" in err
    assert not (out / "checkpoint.bin").exists()


@pytest.mark.parametrize("command, setting, code, message", [
    pytest.param("train", "ln_finetune=0", EXIT_DATA,
                 "base-train image features are not finite", id="train"),
    pytest.param("train", "ln_finetune=1", EXIT_DIVERGENCE,
                 "overflow in the forward pass", id="train-ln_finetune"),
    pytest.param("eval", "mode=learned", EXIT_DATA,
                 "base-test image features are not finite", id="eval-learned"),
    pytest.param("eval", "mode=zero-shot", EXIT_DATA,
                 "base-test image features are not finite",
                 id="eval-zero-shot"),
])
def test_pixels_too_large_for_the_tower_exit_with_one_line(
        tmp_path, capsys, command, setting, code, message):
    # finite, but the vision tower overflows on them
    path = write_manifest(tmp_path / "huge.json", ["oak", "palm"], ["fern"],
                          image=np.full((16, 16, 3), 1e307))
    got, _ = run([command] + FAST + ["--set", f"manifest={path}", "--set",
                                     "shots=1", "--set", setting], tmp_path)
    assert got == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err, err


def test_out_root_env_respected(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("LASP_OUT_ROOT", str(tmp_path / "root"))
    monkeypatch.chdir(tmp_path)
    code = main(["eval", "--seed", "3"] + FAST + ["--set", "mode=zero-shot"])
    assert code == EXIT_OK
    assert (tmp_path / "root" / "eval-seed3" / "config.echo").exists()
