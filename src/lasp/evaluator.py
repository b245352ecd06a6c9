"""Base/new/harmonic-mean evaluation, distractor protocols, centroid distances."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor, no_grad
from .encoders import TAU
from .errors import DataError
from .losses import (grouped_cosine_scores, template_averaged_probs,
                     unit_rows)
from .model import PromptedClip
from .trainer import FewShotDataset

MODES = ("learned", "zero-shot")


def harmonic_mean(base: float, new: float) -> float:
    if not (0.0 <= base <= 100.0 and 0.0 <= new <= 100.0):
        raise DataError(f"accuracies must lie in [0, 100], got {base}, {new}")
    if base + new == 0.0:
        return 0.0
    return 2.0 * base * new / (base + new)


def _score_matrix(model: PromptedClip, dataset: FewShotDataset,
                  class_names: list[str], mode: str) -> np.ndarray:
    """(B, C) decision scores; argmax row-wise is the prediction."""
    if mode not in MODES:
        raise DataError(f"mode must be one of {MODES}, got {mode!r}")
    feats = Tensor(model.frozen_features(dataset))
    with no_grad():
        if mode == "learned":
            rows = model.class_rows(class_names, with_bias=True)
            return grouped_cosine_scores(rows, feats).data
        return template_averaged_probs(model.anchors(class_names), feats,
                                       TAU).data


def evaluate_split(model: PromptedClip, dataset: FewShotDataset,
                   class_names: list[str], mode: str = "learned",
                   label_offset: int = 0) -> tuple[float, dict[str, float]]:
    """Accuracy (%) with the classifier defined over exactly ``class_names``.

    ``label_offset`` maps dataset labels into the candidate list when the
    split's classes sit after others (generalized setting).
    """
    if len(dataset) == 0:
        raise DataError(f"{dataset.split} split has no images")
    labels = dataset.labels + label_offset
    if labels.min() < 0 or labels.max() >= len(class_names):
        raise DataError("dataset label outside the evaluated class set")
    scores = _score_matrix(model, dataset, class_names, mode)
    preds = np.argmax(scores, axis=1)
    correct = preds == labels
    per_class = {}
    for c in np.unique(labels):
        mask = labels == c
        per_class[class_names[int(c)]] = 100.0 * float(correct[mask].mean())
    return 100.0 * float(correct.mean()), per_class


@dataclass
class EvalReport:
    base_acc: float
    new_acc: float
    h: float
    per_class: dict[str, float] = field(default_factory=dict)
    mean_distance: float | None = None
    tag: str = ""

    def kv_lines(self) -> list[str]:
        lines = [f"base_acc, {self.tag or 'all'}, {self.base_acc:.4f}",
                 f"new_acc, {self.tag or 'all'}, {self.new_acc:.4f}",
                 f"harmonic_mean, {self.tag or 'all'}, {self.h:.4f}"]
        for name, acc in self.per_class.items():
            lines.append(f"class_acc, {name}, {acc:.4f}")
        if self.mean_distance is not None:
            lines.append(f"mean_centroid_distance, {self.tag or 'all'}, {self.mean_distance:.6f}")
        return lines

    def table(self) -> str:
        rows = [("base", self.base_acc), ("new", self.new_acc), ("H", self.h)]
        width = max(len(n) for n, _ in rows)
        out = [f"{'set':<{width}}  accuracy"]
        out += [f"{n:<{width}}  {v:8.2f}" for n, v in rows]
        return "\n".join(out)


def evaluate_standard(model: PromptedClip, base_test: FewShotDataset,
                      new_test: FewShotDataset, base_names: list[str],
                      new_names: list[str], mode: str = "learned") -> EvalReport:
    """Base and new splits scored in isolation (each over its own classes)."""
    base_acc, pc_b = evaluate_split(model, base_test, base_names, mode)
    new_acc, pc_n = evaluate_split(model, new_test, new_names, mode)
    return EvalReport(base_acc, new_acc, harmonic_mean(base_acc, new_acc),
                      per_class={**pc_b, **pc_n}, tag="standard")


def evaluate_generalized(model: PromptedClip, base_test: FewShotDataset,
                         new_test: FewShotDataset, base_names: list[str],
                         new_names: list[str], distractors: list[str],
                         mode: str = "learned") -> tuple[EvalReport, EvalReport]:
    """Union-classifier evaluation, without and with distractor names."""
    split_names = base_names + new_names
    collisions = set(split_names) & set(distractors)
    if collisions:
        raise DataError(f"distractors collide with split classes: {sorted(collisions)}")

    def run(cands: list[str], tag: str) -> EvalReport:
        base_acc, pc_b = evaluate_split(model, base_test, cands, mode, 0)
        new_acc, pc_n = evaluate_split(model, new_test, cands, mode, len(base_names))
        return EvalReport(base_acc, new_acc, harmonic_mean(base_acc, new_acc),
                          per_class={**pc_b, **pc_n}, tag=tag)

    without = run(split_names, "generalized")
    with_d = run(split_names + list(distractors), "generalized+distractors")
    return without, with_d


def centroid_distance_matrix(model: PromptedClip,
                             class_names: list[str]) -> tuple[np.ndarray, float]:
    """Pairwise 1 - cos over group-averaged learned class embeddings."""
    if len(class_names) < 2:
        raise DataError("need at least two classes")
    with no_grad():
        rows = model.class_rows(class_names, with_bias=True).data
    cent = unit_rows(unit_rows(rows).mean(axis=0))
    dist = 1.0 - cent @ cent.T
    np.fill_diagonal(dist, 0.0)
    dist = 0.5 * (dist + dist.T)
    c = len(class_names)
    mean_off = float(dist.sum() / (c * (c - 1)))
    return dist, mean_off
