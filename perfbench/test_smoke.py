"""Smoke test of the benchmark at tiny sizes.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import math
from pathlib import Path

import pytest

import run
import workloads
from lasp.trainer import StepResult, Trainer

SPEC = json.loads((Path(__file__).resolve().parent.parent
                   / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny_run(name, trace, out_dir):
    w = workloads.tiny(workloads.WORKLOADS[name])
    return workloads.run(w, 0, 0.01, trace, out_dir)


def test_workload_names_agree():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_named_metric_with_its_unit(name, trace, tmp_path):
    result = tiny_run(name, trace, tmp_path)["result"]
    named = {m["name"]: m["unit"]
             for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    assert set(got) == set(named)
    for metric, unit in named.items():
        assert got[metric]["unit"] == unit
        assert math.isfinite(got[metric]["value"])
    assert result["correct"], result
    assert result["attempted"] >= 1 and result["failed"] == 0
    if trace:
        assert list(tmp_path.glob("spans-*.jsonl"))


def test_loss_checks_reject_a_non_finite_loss():
    rows = [(0, 0, 0.1, 1.0, 2.0, 41.0), (1, 1, 0.1, 1.0, math.nan, math.nan)]
    checks = dict(workloads.loss_checks(rows, steps_per_epoch=1))
    assert checks["every step loss is finite"] is False
    assert checks["last-epoch mean loss below first-epoch mean"] is False


def test_a_non_finite_step_fails_the_run(monkeypatch, tmp_path):
    def nan_step(self, images, labels, lr, step_index=0):
        return StepResult(math.nan, math.nan, math.nan)

    monkeypatch.setattr(Trainer, "train_step", nan_step)
    out = tiny_run("train-text", False, tmp_path)
    assert out["result"]["correct"] is False
    assert out["result"]["failed"] >= 1
    assert "every step loss is finite" in out["report"]["failures"]
