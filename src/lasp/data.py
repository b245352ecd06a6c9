"""Dataset ingestion and the synthetic desk-scale fixture generator.

Synthetic classes are Gaussian image clusters whose centers are optimized
(by gradient ascent on the pixels) to align with the hand-crafted text
anchors of their class names, so that zero-shot structure exists for the
text-to-text machinery to exploit. ``separation`` scales the cluster
tightness: noise std is 1/separation. The fixture reaches the frozen
towers directly and builds no model.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .autodiff import Tensor, log_softmax, normalize_rows
from .encoders import (IMAGE_SHAPE, EncoderConfig, TextEncoder, VisionEncoder,
                       text_tower)
from .errors import ConfigError, DataError
from .losses import unit_rows
from .prompts import TemplateBank, load_template_bank
from .trainer import FewShotDataset

# -- image files ---------------------------------------------------------------

NPT_MAGIC = b"NPT1"


def write_image_npt(path, image: np.ndarray):
    image = np.asarray(image, dtype="<f8")
    h, w, c = image.shape
    with open(path, "wb") as fh:
        fh.write(NPT_MAGIC + f" {h} {w} {c}\n".encode())
        fh.write(np.ascontiguousarray(image).tobytes())


def read_image(path) -> np.ndarray:
    """Decode an NPT or binary PPM file to a finite float (h, w, c) array."""
    with open(path, "rb") as fh:
        raw = fh.read()
    image = _decode(path, raw)
    if not np.isfinite(image).all():
        raise DataError(f"{path}: image holds non-finite pixel values")
    return image


def _decode(path, raw: bytes) -> np.ndarray:
    if raw.startswith(NPT_MAGIC):
        header, _, payload = raw.partition(b"\n")
        try:
            h, w, c = (int(x) for x in header[len(NPT_MAGIC):].split())
        except ValueError as exc:
            raise DataError(f"{path}: malformed raw-tensor header") from exc
        if min(h, w, c) < 1:
            raise DataError(f"{path}: raw-tensor shape {(h, w, c)} "
                            f"is not positive")
        need = h * w * c * 8
        if len(payload) != need:
            raise DataError(f"{path}: raw-tensor payload of {len(payload)} "
                            f"bytes, shape {(h, w, c)} needs {need}")
        return np.frombuffer(payload, dtype="<f8").reshape(h, w, c).astype(np.float64)
    if raw.startswith(b"P6"):
        return _read_ppm(path, raw)
    raise DataError(f"{path}: unknown image format")


def _read_ppm(path, raw: bytes) -> np.ndarray:
    fields: list[bytes] = []
    i = 2
    while len(fields) < 3 and i < len(raw):
        while i < len(raw) and raw[i : i + 1].isspace():
            i += 1
        if raw[i : i + 1] == b"#":
            while i < len(raw) and raw[i : i + 1] != b"\n":
                i += 1
            continue
        j = i
        while j < len(raw) and not raw[j : j + 1].isspace():
            j += 1
        fields.append(raw[i:j])
        i = j
    i += 1      # single whitespace after maxval
    try:
        w, h, maxval = int(fields[0]), int(fields[1]), int(fields[2])
    except (ValueError, IndexError) as exc:
        raise DataError(f"{path}: malformed PPM header") from exc
    if min(w, h) < 1:
        raise DataError(f"{path}: PPM size {w}x{h} is not positive")
    if maxval > 255:
        raise DataError(f"{path}: PPM maxval {maxval} above 255 (16-bit "
                        f"samples are not supported)")
    need = w * h * 3
    if len(raw) - i < need:
        raise DataError(f"{path}: truncated PPM payload")
    data = np.frombuffer(raw, dtype=np.uint8, count=need, offset=i)
    # maxval 0 yields NaN/inf pixels, which read_image rejects
    with np.errstate(divide="ignore", invalid="ignore"):
        return data.reshape(h, w, 3).astype(np.float64) / maxval


# -- manifests -----------------------------------------------------------------


def _str_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


@dataclass
class DatasetManifest:
    root: str
    base_classes: list[str]
    new_classes: list[str]
    images: dict[str, dict[str, list[str]]]    # class -> {"train"/"test": paths}

    def validate(self):
        for key in ("base_classes", "new_classes"):
            names = getattr(self, key)
            if not _str_list(names):
                raise DataError(f"manifest {key} must be a list of class names")
            for name in names:
                # report.kv holds one "key, class, value" line per class, and
                # virtual= lists classes between commas
                if any(c in name for c in ",\r\n"):
                    raise DataError(f"class name {name!r} holds a comma or a "
                                    f"line break")
                if names.count(name) > 1:
                    raise DataError(f"manifest {key} lists class {name!r} "
                                    f"more than once")
        if not isinstance(self.images, dict):
            raise DataError("manifest images must map each class to its parts")
        overlap = set(self.base_classes) & set(self.new_classes)
        if overlap:
            raise DataError(f"overlapping base/new classes: {sorted(overlap)}")
        if not self.base_classes or not self.new_classes:
            raise DataError("manifest needs non-empty base and new class lists")
        for name in self.base_classes + self.new_classes:
            if name not in self.images:
                raise DataError(f"class {name!r} has no image lists")
            parts = self.images[name]
            if not (isinstance(parts, dict)
                    and all(_str_list(files) for files in parts.values())):
                raise DataError(f"images of class {name!r} must map each part "
                                f"to a list of file paths")
            for files in parts.values():
                for f in files:
                    p = os.path.join(self.root, f)
                    if not os.path.exists(p):
                        raise DataError(f"missing image file: {p}")


def load_manifest(path) -> DatasetManifest:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read manifest {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"malformed manifest {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError(f"manifest {path} is not a JSON object")
    try:
        m = DatasetManifest(root=os.path.dirname(os.path.abspath(path)),
                            base_classes=doc["base_classes"],
                            new_classes=doc["new_classes"],
                            images=doc["images"])
    except KeyError as exc:
        raise DataError(f"manifest {path} lacks key {exc}") from exc
    m.validate()
    return m


def load_dataset(manifest: DatasetManifest) -> dict[str, FewShotDataset]:
    """Decode every referenced image into the three tagged splits."""

    def gather(names: list[str], part: str, split: str) -> FewShotDataset:
        imgs, labels = [], []
        for li, name in enumerate(names):
            for f in manifest.images[name].get(part, []):
                imgs.append(read_image(os.path.join(manifest.root, f)))
                labels.append(li)
        if not imgs:
            raise DataError(f"split {split!r} has no images")
        if len({im.shape for im in imgs}) > 1:
            raise DataError(f"split {split!r} mixes image shapes")
        return FewShotDataset(np.stack(imgs), np.asarray(labels, dtype=np.int64), split)

    return {
        "base-train": gather(manifest.base_classes, "train", "base-train"),
        "base-test": gather(manifest.base_classes, "test", "base-test"),
        "new-test": gather(manifest.new_classes, "test", "new-test"),
    }


# -- synthetic fixture ---------------------------------------------------------

CENTER_LR = 0.03      # Adam step size of the pixel ascent for class centers
NOISE_SEED = 100      # cluster noise stream, independent of the spec's seed
SHIFT_TEMPLATE = "a picture of a {}"   # out-of-bank context of new-class targets


@dataclass
class SyntheticDatasetSpec:
    n_base: int = 10
    n_new: int = 10
    samples_per_class: int = 20       # training pool per base class
    test_samples: int = 20
    separation: float = 16.0
    seed: int = 0
    center_steps: int = 600
    context_shift: float = 0.3        # mix new-class targets toward SHIFT_TEMPLATE

    def __post_init__(self):
        for key in ("n_base", "n_new", "samples_per_class", "test_samples"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1")
        pool = len(_class_word_pool())
        if self.n_base + self.n_new > pool:
            raise ConfigError(f"n_base + n_new = {self.n_base + self.n_new} "
                              f"exceeds the {pool} class-word pool names")
        if self.center_steps < 0:
            raise ConfigError("center_steps must be >= 0")
        if self.seed < 0:
            raise ConfigError("fixture seed must be >= 0")
        if not math.isfinite(self.separation) or self.separation <= 0:
            raise ConfigError("separation must be positive and finite")
        if not 0.0 <= self.context_shift <= 1.0:
            raise ConfigError("context_shift must lie in [0, 1]")


@dataclass
class SyntheticDataset:
    base_names: list[str]
    new_names: list[str]
    splits: dict[str, FewShotDataset]
    centers: np.ndarray = field(repr=False, default=None)


def _class_word_pool() -> list[str]:
    text = resources.files("lasp.assets").joinpath("class_words.txt").read_text("utf-8")
    return [w for w in text.split() if w]


def permuted_class_words(seed: int) -> list[str]:
    """The class-word pool permuted by ``seed``: the synthetic fixture takes
    its split names from the front, distractors come after them."""
    pool = _class_word_pool()
    return [pool[int(i)] for i in np.random.default_rng(seed).permutation(len(pool))]


def _aligned_centers(vision: VisionEncoder, targets: np.ndarray,
                     spec: SyntheticDatasetSpec, rng) -> np.ndarray:
    """Gradient-ascend pixels so each class image is classified correctly
    against the given unit target directions (softmax over classes)."""
    an_t = Tensor(targets.T[None])                         # (1, d, C)
    n = len(targets)
    x = Tensor(0.5 + 0.15 * rng.standard_normal((n, *IMAGE_SHAPE)),
               requires_grad=True)
    eye = Tensor(np.eye(n))
    m1 = np.zeros_like(x.data)
    m2 = np.zeros_like(x.data)
    tau_hi, tau_lo = 0.2, 0.02
    steps = spec.center_steps
    for it in range(steps):
        # annealed temperature: soft early for gradient signal, sharp late
        tau = tau_hi * (tau_lo / tau_hi) ** (it / max(steps - 1, 1))
        x.zero_grad()
        feats = vision.encode_batch(x)
        cos = normalize_rows(feats) @ an_t                 # (1, n, n)
        logp = log_softmax(cos * (1.0 / tau), axis=-1).mean(axis=0)
        (logp * eye).sum().backward()
        m1 = 0.9 * m1 + 0.1 * x.grad
        m2 = 0.999 * m2 + 0.001 * x.grad * x.grad
        x.data += CENTER_LR * m1 / (np.sqrt(m2) + 1e-8)
        np.clip(x.data, 0.0, 1.0, out=x.data)
    return x.data.copy()


def _center_targets(text: TextEncoder, bank: TemplateBank, names: list[str],
                    spec: SyntheticDatasetSpec) -> np.ndarray:
    """Unit target directions: template-mean anchors, with new-class targets
    optionally rotated toward an out-of-bank context so hand-crafted anchors
    are imperfect for exactly the classes that have no training images."""
    anchors = text.anchors(bank.templates, names)          # (L, C, d)
    base_dir = unit_rows(unit_rows(anchors).mean(axis=0))  # (C, d)
    if spec.context_shift == 0.0:
        return base_dir
    alt_dir = unit_rows(text.anchors([SHIFT_TEMPLATE], names)[0])
    g = spec.context_shift
    targets = base_dir.copy()
    targets[spec.n_base:] = unit_rows((1 - g) * base_dir[spec.n_base:]
                                      + g * alt_dir[spec.n_base:])
    return targets


def make_synthetic_dataset(spec: SyntheticDatasetSpec, enc_cfg: EncoderConfig,
                           template_source: TemplateBank | str
                           ) -> SyntheticDataset:
    """The synthetic fixture. Its class centers are aimed at the anchors of
    ``template_source``: a loaded bank, or a ``load_template_bank`` source.
    It reads the anchors from the config's shared ``text_tower`` and builds
    a vision tower for the ascent."""
    names = permuted_class_words(spec.seed)[: spec.n_base + spec.n_new]
    base_names, new_names = names[: spec.n_base], names[spec.n_base :]
    bank = (template_source if isinstance(template_source, TemplateBank)
            else load_template_bank(template_source))
    targets = _center_targets(text_tower(enc_cfg), bank, names, spec)
    with_centers = _aligned_centers(VisionEncoder(enc_cfg), targets, spec,
                                    np.random.default_rng(spec.seed))

    std = 1.0 / spec.separation
    noise_rng = np.random.default_rng(NOISE_SEED)

    def cluster(class_idx: list[int], per_class: int, split: str) -> FewShotDataset:
        imgs, labels = [], []
        for li, ci in enumerate(class_idx):
            noise = noise_rng.normal(0.0, std, size=(per_class, *IMAGE_SHAPE))
            imgs.append(with_centers[ci] + noise)
            labels.extend([li] * per_class)
        return FewShotDataset(np.concatenate(imgs),
                              np.asarray(labels, dtype=np.int64), split)

    base_idx = list(range(spec.n_base))
    new_idx = list(range(spec.n_base, spec.n_base + spec.n_new))
    splits = {
        "base-train": cluster(base_idx, spec.samples_per_class, "base-train"),
        "base-test": cluster(base_idx, spec.test_samples, "base-test"),
        "new-test": cluster(new_idx, spec.test_samples, "new-test"),
    }
    return SyntheticDataset(base_names, new_names, splits, centers=with_centers)


def write_dataset(out_dir, splits: dict[str, FewShotDataset],
                  base_names: list[str], new_names: list[str]) -> str:
    """Persist the three splits as image files plus a JSON manifest that
    ``load_manifest``/``load_dataset`` read back; returns the manifest path."""
    os.makedirs(out_dir, exist_ok=True)
    images: dict[str, dict[str, list[str]]] = {}

    def dump(split: str, names: list[str], part: str):
        ds = splits[split]
        for i, (img, lab) in enumerate(zip(ds.images, ds.labels)):
            name = names[int(lab)]
            rel = os.path.join(name, f"{part}_{i:04d}.npt")
            os.makedirs(os.path.join(out_dir, name), exist_ok=True)
            write_image_npt(os.path.join(out_dir, rel), img)
            images.setdefault(name, {}).setdefault(part, []).append(rel)

    dump("base-train", base_names, "train")
    dump("base-test", base_names, "test")
    dump("new-test", new_names, "test")
    manifest = {
        "base_classes": base_names,
        "new_classes": new_names,
        "images": images,
    }
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
    return path
