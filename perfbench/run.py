#!/usr/bin/env python3
"""Run one benchmark workload and print its result.

From the repository root:

    python3 perfbench/run.py --workload train-text --seed 0 --seconds 12 --trace 0

The inputs come from ``--seed``. The run measures for ``--seconds`` (longer
if the workload's minimum number of timed calls is not yet reached), checks
the outputs, and prints two JSON lines on stdout: a report with every named
metric, the machine and the failed checks, then the result line
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` gives the
end-to-end metrics; ``--trace 1`` gives the per-layer metrics and writes the
run's spans to ``perfbench/out/``. lasp is imported from ``./src``; without
it the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("train-text", "train-vision", "eval-sweep")


def finite_json(doc):
    """Replace non-finite floats (from a failed run) so the output stays JSON."""
    if isinstance(doc, dict):
        return {k: finite_json(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [finite_json(v) for v in doc]
    if isinstance(doc, float) and not math.isfinite(doc):
        return 0.0
    return doc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    # One BLAS thread (at most nproc anywhere): the matrices are small, and
    # one thread keeps timings steadier on a shared machine. Set before
    # numpy is first imported.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    src = ROOT / "src"
    if not (src / "lasp" / "__init__.py").is_file():
        print(f"perfbench: lasp sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    out = workloads.run(workloads.WORKLOADS[args.workload], args.seed,
                        args.seconds, bool(args.trace), HERE / "out")
    print(json.dumps(finite_json(out["report"]), allow_nan=False))
    print(json.dumps(finite_json(out["result"]), allow_nan=False), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
