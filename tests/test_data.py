import json

import numpy as np
import pytest

import lasp.encoders
from lasp.data import (DatasetManifest, SyntheticDatasetSpec, _class_word_pool,
                       load_dataset, load_manifest, make_synthetic_dataset,
                       read_image, write_dataset, write_image_npt)
from lasp.encoders import EncoderConfig, VisionEncoder
from lasp.errors import ConfigError, DataError

SMALL_ENC = EncoderConfig(d_tok=8, d=8, n_layers=1, n_heads=2, max_len=16)
FAST = dict(n_base=2, n_new=2, samples_per_class=3, test_samples=2,
            center_steps=20)


# -- image files ---------------------------------------------------------------


def test_npt_round_trip(tmp_path):
    img = np.random.default_rng(0).random((5, 4, 3))
    path = tmp_path / "x.npt"
    write_image_npt(path, img)
    assert np.array_equal(read_image(path), img)


def test_npt_truncated_rejected(tmp_path):
    path = tmp_path / "x.npt"
    write_image_npt(path, np.zeros((4, 4, 3)))
    data = path.read_bytes()
    path.write_bytes(data[:-16])
    with pytest.raises(DataError):
        read_image(path)
    ppm = tmp_path / "x.ppm"
    ppm.write_bytes(b"P6\n2 2\n255\n" + bytes(range(11)))
    with pytest.raises(DataError, match="truncated PPM"):
        read_image(ppm)


def test_ppm_decoding(tmp_path):
    path = tmp_path / "x.ppm"
    pixels = bytes(range(12))
    path.write_bytes(b"P6\n# comment\n2 2\n255\n" + pixels)
    img = read_image(path)
    assert img.shape == (2, 2, 3)
    assert img.max() <= 1.0 and img.min() >= 0.0
    assert img[0, 0, 1] == pytest.approx(1 / 255)


def test_non_finite_pixels_rejected(tmp_path):
    img = np.zeros((4, 4, 3))
    img[1, 2, 0] = np.nan
    npt = tmp_path / "nan.npt"
    write_image_npt(npt, img)
    ppm = tmp_path / "zero.ppm"       # maxval 0 decodes to 0/0 and x/0
    ppm.write_bytes(b"P6\n2 2\n0\n" + bytes(range(12)))
    for path in (npt, ppm):
        with pytest.raises(DataError, match=f"{path.name}: .*non-finite"):
            read_image(path)


@pytest.mark.parametrize("header, message", [
    (b"P6\n2 2\n65535\n", "PPM maxval 65535"),     # 16-bit samples
    (b"P6\n0 2\n255\n", "PPM size 0x2"),
    (b"P6\n-1 2\n255\n", "PPM size -1x2"),
])
def test_ppm_header_rejected(tmp_path, header, message):
    path = tmp_path / "x.ppm"
    path.write_bytes(header + b"\xff" * 24)
    with pytest.raises(DataError, match=f"x.ppm: {message}"):
        read_image(path)


@pytest.mark.parametrize("header, payload, message", [
    (b"NPT1 -1 4 3\n", 24, "not positive"),
    (b"NPT1 0 4 3\n", 0, "not positive"),
    (b"NPT1 2 4 3\n", 25,
     r"payload of 200 bytes, shape \(2, 4, 3\) needs 192"),
])
def test_npt_shape_must_match_payload(tmp_path, header, payload, message):
    path = tmp_path / "x.npt"
    path.write_bytes(header + np.zeros(payload).tobytes())
    with pytest.raises(DataError, match=f"x.npt: .*{message}"):
        read_image(path)


def test_unknown_format_rejected(tmp_path):
    path = tmp_path / "x.bin"
    path.write_bytes(b"GIF89a....")
    with pytest.raises(DataError):
        read_image(path)


# -- manifests -----------------------------------------------------------------


def write_manifest(tmp_path, doc):
    p = tmp_path / "manifest.json"
    p.write_text(json.dumps(doc))
    return p


def test_manifest_validation(tmp_path):
    img = tmp_path / "a.npt"
    write_image_npt(img, np.zeros((4, 4, 3)))
    ok = {"base_classes": ["a"], "new_classes": ["b"],
          "images": {"a": {"train": ["a.npt"], "test": ["a.npt"]},
                     "b": {"test": ["a.npt"]}}}
    m = load_manifest(write_manifest(tmp_path, ok))
    assert isinstance(m, DatasetManifest)

    overlap = dict(ok, new_classes=["a"])
    with pytest.raises(DataError):
        load_manifest(write_manifest(tmp_path, overlap))

    missing = dict(ok, images={"a": {"train": ["gone.npt"]}, "b": {}})
    with pytest.raises(DataError):
        load_manifest(write_manifest(tmp_path, missing))

    empty = dict(ok, base_classes=[])
    with pytest.raises(DataError):
        load_manifest(write_manifest(tmp_path, empty))

    repeated = dict(ok, base_classes=["a", "a"])
    with pytest.raises(DataError, match="base_classes lists class 'a' more"):
        load_manifest(write_manifest(tmp_path, repeated))

    no_new = {k: v for k, v in ok.items() if k != "new_classes"}
    with pytest.raises(DataError, match="new_classes"):
        load_manifest(write_manifest(tmp_path, no_new))

    write_image_npt(tmp_path / "b.npt", np.zeros((5, 5, 3)))
    mixed = dict(ok, images={"a": {"train": ["a.npt", "b.npt"]},
                             "b": {"test": ["a.npt"]}})
    with pytest.raises(DataError, match="mixes image shapes"):
        load_dataset(load_manifest(write_manifest(tmp_path, mixed)))


# -- synthetic fixture ---------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ConfigError):
        SyntheticDatasetSpec(separation=0.0)
    with pytest.raises(ConfigError):
        SyntheticDatasetSpec(context_shift=1.5)


def test_class_word_pool_is_clean():
    pool = _class_word_pool()
    assert len(pool) == len(set(pool))
    assert len(pool) >= 40
    assert all(w == w.lower() and w.isalpha() for w in pool)


def test_synthetic_dataset_structure_and_determinism():
    spec = SyntheticDatasetSpec(seed=3, **FAST)
    a = make_synthetic_dataset(spec, SMALL_ENC, template_source="1")
    b = make_synthetic_dataset(spec, SMALL_ENC, template_source="1")
    assert a.base_names == b.base_names and a.new_names == b.new_names
    assert len(a.base_names) == 2 and len(a.new_names) == 2
    for split, n_classes, per in (("base-train", 2, 3), ("base-test", 2, 2),
                                  ("new-test", 2, 2)):
        ds = a.splits[split]
        assert ds.images.shape == (n_classes * per, 16, 16, 3)
        assert np.array_equal(ds.images, b.splits[split].images)
    assert np.array_equal(a.centers, b.centers)


def test_synthetic_dataset_seed_changes_classes():
    a = make_synthetic_dataset(SyntheticDatasetSpec(seed=0, **FAST), SMALL_ENC,
                               template_source="1")
    b = make_synthetic_dataset(SyntheticDatasetSpec(seed=9, **FAST), SMALL_ENC,
                               template_source="1")
    assert a.base_names != b.base_names


def test_context_shift_changes_new_centers():
    base_spec = SyntheticDatasetSpec(seed=1, **FAST)
    shifted = SyntheticDatasetSpec(seed=1, context_shift=0.5, **FAST)
    a = make_synthetic_dataset(base_spec, SMALL_ENC, template_source="1")
    b = make_synthetic_dataset(shifted, SMALL_ENC, template_source="1")
    assert not np.array_equal(a.centers[2:], b.centers[2:])


def test_fixture_builds_one_tower_of_each_kind_and_no_model(builds):
    # the shifted context's anchors come from the same text tower
    spec = SyntheticDatasetSpec(seed=1, context_shift=0.5, **FAST)
    make_synthetic_dataset(spec, SMALL_ENC, template_source="6")
    assert builds == {"Tokenizer": 1, "TextEncoder": 1, "VisionEncoder": 1,
                      "PromptedClip": 0}


def test_heap_thresholds_are_set_before_the_first_vision_pass(monkeypatch):
    calls = []
    keep, encode = lasp.encoders._keep_freed_heap, VisionEncoder.encode_batch

    def keeping():
        calls.append("heap")
        keep()

    def encoding(self, images):
        calls.append("vision")
        return encode(self, images)
    monkeypatch.setattr(lasp.encoders, "_keep_freed_heap", keeping)
    monkeypatch.setattr(VisionEncoder, "encode_batch", encoding)
    make_synthetic_dataset(SyntheticDatasetSpec(**dict(FAST, center_steps=2)),
                           SMALL_ENC, template_source="1")
    assert calls[0] == "heap" and "vision" in calls


def test_separation_controls_noise_scale():
    tight = SyntheticDatasetSpec(seed=0, separation=100.0, **FAST)
    loose = SyntheticDatasetSpec(seed=0, separation=1.0, **FAST)
    a = make_synthetic_dataset(tight, SMALL_ENC, template_source="1")
    b = make_synthetic_dataset(loose, SMALL_ENC, template_source="1")
    spread = lambda d: float(np.std(d.splits["base-train"].images
                                    - np.repeat(d.centers[:2], 3, axis=0)))
    assert spread(a) < spread(b) / 10


def test_write_then_load_round_trip(tmp_path):
    data = make_synthetic_dataset(SyntheticDatasetSpec(seed=2, **FAST),
                                  SMALL_ENC, template_source="1")
    manifest_path = write_dataset(tmp_path / "ds", data.splits,
                                  data.base_names, data.new_names)
    manifest = load_manifest(manifest_path)
    assert manifest.base_classes == data.base_names
    assert manifest.new_classes == data.new_names
    splits = load_dataset(manifest)
    for name in ("base-train", "base-test", "new-test"):
        assert np.array_equal(splits[name].images, data.splits[name].images)
        assert np.array_equal(splits[name].labels, data.splits[name].labels)
