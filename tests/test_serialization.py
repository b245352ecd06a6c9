import numpy as np
import pytest

from lasp.errors import DataError
from lasp.serialization import load_tensors, save_tensors


def test_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    named = {"a": rng.standard_normal((3, 4)),
             "b.c": rng.standard_normal(7),
             "scalarish": np.array(2.5)}
    path = tmp_path / "w.bin"
    save_tensors(path, named, meta={"seed": "0", "note": "x"})
    loaded, meta = load_tensors(path)
    assert set(loaded) == set(named)
    for k in named:
        assert np.array_equal(loaded[k], named[k])
    assert meta == {"seed": "0", "note": "x"}


def test_save_is_deterministic(tmp_path):
    named = {"w": np.arange(12.0).reshape(3, 4)}
    p1, p2 = tmp_path / "1.bin", tmp_path / "2.bin"
    save_tensors(p1, named, meta={"k": "v"})
    save_tensors(p2, named, meta={"k": "v"})
    assert p1.read_bytes() == p2.read_bytes()


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTAWEIGHTFILE\n\nxxxx")
    with pytest.raises(ValueError):
        load_tensors(path)


@pytest.mark.parametrize("raw, message", [
    (b"LASPW1\nw 1 2\n", "no terminator"),
    (b"LASPW1\nw 2 3\n\n" + bytes(48), "bad weight file header line"),
    (b"LASPW1\nw 1 3\n\n" + bytes(16), "truncated in tensor w"),
])
def test_malformed_file_rejected(tmp_path, raw, message):
    path = tmp_path / "bad.bin"
    path.write_bytes(raw)
    with pytest.raises(DataError, match=message):
        load_tensors(path)
