#!/usr/bin/env python3
"""Generate the synthetic base/new fixture and persist it as files + manifest.

Exit codes as for the ``lasp`` CLI: 0 ok, 2 bad value, 3 data error.
"""

import argparse
import sys

from lasp.cli import EXIT_OK, run_reporting_errors
from lasp.data import SyntheticDatasetSpec, make_synthetic_dataset, write_dataset


def write_fixture(args) -> int:
    spec = SyntheticDatasetSpec(n_base=args.n_base, n_new=args.n_new,
                                separation=args.separation,
                                context_shift=args.context_shift,
                                seed=args.seed)
    data = make_synthetic_dataset(spec, template_source=args.templates)
    path = write_dataset(args.out, data)
    print(f"wrote {path}")
    print(f"base classes: {', '.join(data.base_names)}")
    print(f"new classes:  {', '.join(data.new_names)}")
    return EXIT_OK


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("out", help="output directory")
    ap.add_argument("--n-base", type=int, default=10)
    ap.add_argument("--n-new", type=int, default=10)
    ap.add_argument("--separation", type=float, default=16.0)
    ap.add_argument("--context-shift", type=float, default=0.3)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--templates", default="6")
    return run_reporting_errors(write_fixture, ap.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
