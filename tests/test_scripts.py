import importlib.util
import os
import subprocess
from pathlib import Path

import lasp.cli
from lasp.cli import EXIT_USAGE

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_benchmark_smoke(capsys):
    load_script("run_benchmark").main(["--seeds", "0", "2", "--epochs", "1"])
    means, per_seed, margins = capsys.readouterr().out.strip().split("\n\n")
    header, *rows = means.splitlines()
    assert header.split() == ["config", "base", "new", "H"]
    assert [r.split()[0] for r in rows] == ["zero-shot", "baseline", "lasp",
                                            "lasp-v", "l1", "l2"]
    for row in rows:
        assert all(0.0 <= float(v) <= 100.0 for v in row.split()[1:])
    mean_new = {r.split()[0]: float(r.split()[2]) for r in rows}

    header, *rows = per_seed.splitlines()
    assert header.split() == ["config", "seed", "base", "new", "H"]
    assert [r.split()[:2] for r in rows] == [
        [label, seed] for label in ("baseline", "lasp", "lasp-v", "l1", "l2")
        for seed in ("0", "2")]
    for row in rows:
        assert all(0.0 <= float(v) <= 100.0 for v in row.split()[2:])
    # each mean row is the mean of its seeds' rows
    for label, new in mean_new.items():
        seeds = [float(r.split()[3]) for r in rows if r.split()[0] == label]
        assert label == "zero-shot" or abs(sum(seeds) / 2 - new) <= 0.005

    header, *rows = margins.splitlines()
    assert header.split() == ["new-class", "margin", "mean", "criterion"]
    names = ["lasp - baseline", "lasp-v - lasp", "lasp-v - max(l1, l2)"]
    assert [r[:22].strip() for r in rows] == names
    assert [r.split()[-1] for r in rows] == ["7", "7", "10"]
    expected = [mean_new["lasp"] - mean_new["baseline"],
                mean_new["lasp-v"] - mean_new["lasp"],
                mean_new["lasp-v"] - max(mean_new["l1"], mean_new["l2"])]
    for row, margin in zip(rows, expected):
        assert abs(float(row.split()[-2]) - margin) <= 0.02


def test_run_benchmark_bad_epochs_exits_2_before_fixture(monkeypatch, capsys):
    def no_fixture(*a, **k):
        raise AssertionError("fixture built before the schedule was checked")
    monkeypatch.setattr(lasp.cli, "make_synthetic_dataset", no_fixture)
    code = load_script("run_benchmark").main(["--seeds", "0", "--epochs", "-1"])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: rates and counts must be positive\n"


def test_run_benchmark_negative_seed_exits_2_before_fixture(monkeypatch, capsys):
    def no_fixture(*a, **k):
        raise AssertionError("fixture built before the seeds were checked")
    monkeypatch.setattr(lasp.cli, "make_synthetic_dataset", no_fixture)
    code = load_script("run_benchmark").main(["--seeds", "0", "-1"])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seed must be >= 0\n"


def test_reproduce_ablations_smoke(tmp_path):
    src = str(Path(lasp.__file__).resolve().parents[1])
    env = dict(os.environ, LASP_OUT_ROOT=str(tmp_path), OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, (
                   src, os.environ.get("PYTHONPATH")))))
    small = ["center_steps=20", "epochs=1", "warmup_epochs=0", "n_base=2",
             "n_new=2", "samples_per_class=3", "test_samples=2", "shots=2",
             "batch_size=4", "groups=2", "distractors=2"]
    out = subprocess.run(["bash", str(SCRIPTS / "reproduce_ablations.sh")]
                         + [a for kv in small for a in ("--set", kv)],
                         env=env, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    for command in ("train", "ablate-loss", "ablate-components",
                    "ablate-templates", "distract"):
        assert (tmp_path / f"{command}-seed0" / "report.kv").exists(), command
