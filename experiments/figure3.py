#!/usr/bin/env python3
"""Regenerate Figure 3: thrasher performance under both systems.

Panel (a): average page access time versus address-space size for
std_rw, cc_rw, std_ro, cc_ro.  Panel (b): speedup of the compression
cache relative to the unmodified system.

Run: python experiments/figure3.py [scale] [--jobs N]
     [--resume checkpoint.jsonl] [--timeout seconds]

scale=1.0 is the paper's configuration (≈6 MBytes of user memory,
address spaces up to 40 MBytes); the default 0.25 keeps the run to a
couple of minutes while preserving every regime transition.  Sweep
points are independent, so ``--jobs $(nproc)`` fans them across worker
processes with identical output (see docs/sweep.md).
"""

import argparse

from repro.cli import _bounded, main

if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    positive = _bounded(float, 0, inclusive=False)
    parser.add_argument("scale", nargs="?", type=positive, default=0.25)
    parser.add_argument("--jobs", type=_bounded(int, 1), default=1)
    parser.add_argument("--resume", default=None,
                        help="JSONL checkpoint path (created if absent)")
    parser.add_argument("--timeout", type=positive, default=None)
    args = parser.parse_args()
    # The CLI's run: its tables, its FAILED lines and its exit codes.
    argv = ["figure3", "--scale", repr(args.scale), "--jobs", str(args.jobs)]
    if args.resume is not None:
        argv += ["--resume", args.resume]
    if args.timeout is not None:
        argv += ["--timeout", repr(args.timeout)]
    raise SystemExit(main(argv))
