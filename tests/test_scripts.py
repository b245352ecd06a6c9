import importlib.util
from pathlib import Path

import lasp.cli
from lasp.cli import EXIT_USAGE
from lasp.data import load_dataset, load_manifest

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


def test_make_fixture_smoke(tmp_path, capsys):
    load_script("make_fixture").main([str(tmp_path), "--n-base", "2",
                                      "--n-new", "2"])
    assert f"wrote {tmp_path / 'manifest.json'}" in capsys.readouterr().out
    manifest = load_manifest(tmp_path / "manifest.json")
    assert len(manifest.base_classes) == len(manifest.new_classes) == 2
    splits = load_dataset(manifest)
    assert [len(splits[k]) for k in ("base-train", "base-test", "new-test")] \
        == [40, 40, 40]
    assert all(ds.images.shape[1:] == (16, 16, 3) for ds in splits.values())


def test_make_fixture_bad_value_exits_2(tmp_path, capsys):
    code = load_script("make_fixture").main([str(tmp_path), "--n-base", "0"])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == "error: n_base must be >= 1\n"
    assert not (tmp_path / "manifest.json").exists()


def test_run_benchmark_bad_epochs_exits_2_before_fixture(monkeypatch, capsys):
    def no_fixture(*a, **k):
        raise AssertionError("fixture built before the schedule was checked")
    monkeypatch.setattr(lasp.cli, "make_synthetic_dataset", no_fixture)
    code = load_script("run_benchmark").main(["--seeds", "0", "--epochs", "-1"])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: rates and counts must be positive\n"
