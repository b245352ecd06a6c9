import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_run_benchmark_smoke(capsys):
    spec = importlib.util.spec_from_file_location(
        "run_benchmark", SCRIPTS / "run_benchmark.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main(["--seeds", "0", "--epochs", "1"])
    header, *rows = capsys.readouterr().out.strip().splitlines()
    assert header.split() == ["config", "base", "new", "H"]
    assert [r.split()[0] for r in rows] == ["zero-shot", "baseline", "lasp",
                                            "lasp-v", "l1", "l2"]
    for row in rows:
        assert all(0.0 <= float(v) <= 100.0 for v in row.split()[1:])
