#!/usr/bin/env python3
"""Benchmark of the anchorinv package.

    python3 perfbench/run.py --workload desk-trials --seed 1 --seconds 20 --trace 0

Runs one workload (desk-trials, bci-session or desk-train) in this process
against the package source in ``src/`` of the checkout that holds this
file, checks every op's outputs, prints each metric with its unit, and
prints as its last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  A record of the run goes to
``.perfbench/`` in the checkout.  The exit code is non-zero when a check
fails or the package source is missing.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("desk-trials", "bci-session", "desk-train")
# at most two BLAS threads, and never more than the machine has
BLAS_THREADS = str(min(2, os.cpu_count() or 1))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own smoke test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "anchorinv" / "__init__.py").is_file():
        print(f"error: package source not found at {src / 'anchorinv'}", file=sys.stderr)
        return 2
    # before numpy loads, so BLAS starts with this many threads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [str(src), str(ROOT)]

    import anchorinv
    if Path(anchorinv.__file__).resolve().parent != (src / "anchorinv").resolve():
        print(f"error: imported anchorinv from {anchorinv.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    from perfbench import harness, workloads

    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    return harness.main(args.workload, args.seed, args.seconds, bool(args.trace), sizes,
                        ROOT / ".perfbench")


if __name__ == "__main__":
    sys.exit(main())
