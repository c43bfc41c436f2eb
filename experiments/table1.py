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

from repro.experiments import (
    render_table1,
    run_cells,
    table1_points,
    table1_rows,
)

if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("scale", nargs="?", type=float, default=0.12)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--resume", default=None,
                        help="JSONL checkpoint path (created if absent)")
    parser.add_argument("--timeout", type=float, default=None)
    args = parser.parse_args()
    rows = table1_rows(run_cells(
        table1_points(scale=args.scale),
        jobs=args.jobs,
        checkpoint=args.resume,
        timeout=args.timeout,
    ))
    print(render_table1(rows))
