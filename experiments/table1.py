#!/usr/bin/env python3
"""Regenerate Table 1: application speedups under the compression cache.

Seven rows: compare, isca, sort partial, gold create, gold cold,
sort random, gold warm — with Time(std), Time(CC), speedup, mean kept
compression ratio, and the fraction of pages missing the 4:3 threshold,
printed beside the paper's numbers.

Run: python experiments/table1.py [scale] [--jobs N]
     [--resume checkpoint.jsonl] [--timeout seconds]

scale=1.0 matches the paper's 14 MBytes of user memory; the default
0.12 runs in a few minutes.  Application CPU time is calibrated so the
standard-system run time matches the paper's Time(std) column (scaled);
everything else is an emergent output.  See EXPERIMENTS.md.  Rows are
independent sweep points, so ``--jobs 7`` measures them concurrently
with identical output (see docs/sweep.md).
"""

import argparse

from repro.cli import _bounded, main

if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    positive = _bounded(float, 0, inclusive=False)
    parser.add_argument("scale", nargs="?", type=positive, default=0.12)
    parser.add_argument("--jobs", type=_bounded(int, 1), default=1)
    parser.add_argument("--resume", default=None,
                        help="JSONL checkpoint path (created if absent)")
    parser.add_argument("--timeout", type=positive, default=None)
    args = parser.parse_args()
    # The CLI's run: its tables, its FAILED lines and its exit codes.
    argv = ["table1", "--scale", repr(args.scale), "--jobs", str(args.jobs)]
    if args.resume is not None:
        argv += ["--resume", args.resume]
    if args.timeout is not None:
        argv += ["--timeout", repr(args.timeout)]
    raise SystemExit(main(argv))
