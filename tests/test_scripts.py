import importlib.util
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
    load_script("run_benchmark").main(["--seeds", "0", "--epochs", "1"])
    header, *rows = capsys.readouterr().out.strip().splitlines()
    assert header.split() == ["config", "base", "new", "H"]
    assert [r.split()[0] for r in rows] == ["zero-shot", "baseline", "lasp",
                                            "lasp-v", "l1", "l2"]
    for row in rows:
        assert all(0.0 <= float(v) <= 100.0 for v in row.split()[1:])


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
