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

from repro.experiments import EXPERIMENTS, Figure3Result, run_cells

if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("scale", nargs="?", type=float, default=0.25)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--resume", default=None,
                        help="JSONL checkpoint path (created if absent)")
    parser.add_argument("--timeout", type=float, default=None)
    args = parser.parse_args()
    cells = run_cells(
        EXPERIMENTS["figure3"].points(args.scale, {"mode": "both"}),
        jobs=args.jobs,
        checkpoint=args.resume,
        timeout=args.timeout,
    )
    for mode in ("ro", "rw"):
        result = Figure3Result.from_cells(mode, cells)
        print(result.render())
        print()
        peak = max(point.speedup for point in result.points)
        print(f"peak cc_{mode} speedup: {peak:.1f}x")
        print()
