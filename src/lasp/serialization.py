"""Flat binary weight files: textual shape header + raw float64 payload."""

from __future__ import annotations

import numpy as np

from .errors import DataError

MAGIC = "LASPW1"


def save_tensors(path, named: dict[str, np.ndarray], meta: dict[str, str] | None = None):
    """Write named arrays byte-for-byte reproducibly.

    Header is text: magic, optional ``#key=value`` meta lines, then one
    ``name ndim dims...`` line per tensor; payload is the concatenated
    little-endian float64 data in header order.
    """
    names = list(named)
    lines = [MAGIC]
    for k, v in sorted((meta or {}).items()):
        lines.append(f"#{k}={v}")
    for name in names:
        arr = np.asarray(named[name], dtype=np.float64)
        dims = " ".join(str(d) for d in arr.shape)
        lines.append(f"{name} {arr.ndim} {dims}".rstrip())
    header = "\n".join(lines) + "\n\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("utf-8"))
        for name in names:
            fh.write(np.ascontiguousarray(named[name], dtype="<f8").tobytes())


def load_tensors(path) -> tuple[dict[str, np.ndarray], dict[str, str]]:
    """Read a file written by ``save_tensors``; ``DataError`` if it cannot
    be read or is malformed."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read weight file {path}: {exc.strerror}") from exc
    if not raw.startswith(MAGIC.encode() + b"\n"):
        raise DataError(f"{path}: not a weight file (bad magic {raw[:16]!r})")
    head_end = raw.find(b"\n\n")
    if head_end < 0:
        raise DataError(f"{path}: weight file header has no terminator")
    meta: dict[str, str] = {}
    shapes: list[tuple[str, tuple[int, ...]]] = []
    for line in raw[:head_end].decode("utf-8", "replace").split("\n")[1:]:
        if line.startswith("#"):
            k, _, v = line[1:].partition("=")
            meta[k] = v
            continue
        parts = line.split()
        if (len(parts) < 2 or not all(p.isdigit() for p in parts[1:])
                or len(parts) != 2 + int(parts[1])):
            raise DataError(f"{path}: bad weight file header line {line!r}")
        shapes.append((parts[0], tuple(int(d) for d in parts[2:])))
    out: dict[str, np.ndarray] = {}
    offset = head_end + 2
    for name, shape in shapes:
        n = int(np.prod(shape)) if shape else 1
        if offset + n * 8 > len(raw):
            raise DataError(f"{path}: weight file truncated in tensor {name}")
        arr = np.frombuffer(raw, dtype="<f8", count=n, offset=offset).reshape(shape)
        out[name] = arr.astype(np.float64)
        offset += n * 8
    return out, meta
