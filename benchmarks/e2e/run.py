#!/usr/bin/env python3
"""The repository's end-to-end benchmark: one workload per invocation.

    python3 benchmarks/e2e/run.py --workload NAME --seed N
                                  [--seconds S] [--trace 0|1] [--quick]
    python3 benchmarks/e2e/run.py --aa N [--workload NAME]
    python3 benchmarks/e2e/run.py --pin 0-9

Inputs are made from ``--seed``; the system is driven only through its
public entry points; outputs are checked; every metric is printed by
name with its unit; and the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` holding the
``end_to_end`` metrics of ``BENCHMARK.json`` (``--trace 0``) or its
``per_layer`` metrics (``--trace 1``).  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

import harness

harness.add_src_to_path()


def _workload_module(name: str):
    # Imported late: ``repro`` must be importable first, and a checkout
    # without ``src/`` has to fail before any result is printed.
    if name.startswith("sim-"):
        import sim_workloads
        return sim_workloads
    if name.startswith("kv-"):
        import kv_workload
        return kv_workload
    import lfs_workload
    return lfs_workload


def run_one(args: argparse.Namespace, declaration: Dict[str, object]) -> int:
    harness.pin_to_one_cpu()
    recorder = None
    if args.trace:
        from trace import SpanRecorder

        recorder = SpanRecorder(
            f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    try:
        module = _workload_module(args.workload)
    except ImportError as exc:
        print(f"cannot import the system under test from {harness.SRC}: "
              f"{exc}", file=sys.stderr)
        return 2
    result = module.run(args.workload, args.seed, args.seconds,
                        args.quick, recorder)

    if recorder is not None:
        declared = declaration["per_layer"]
        # A layer this workload never enters reads 0.
        values = {metric["name"]: 0.0 for metric in declared}
        values.update(result.layers)
        # Single ranks of the latency distribution sit too close to a
        # population boundary on some workloads to carry a bound; they
        # are reported here instead.
        timing = harness.timing_metrics(result)
        for rank in ("p50", "p95", "p99"):
            values[f"client.lat_{rank}_us"] = timing[f"lat_{rank}_us"]
        path = (harness.HERE / "out"
                / f"{args.workload}-seed{args.seed}.jsonl")
        recorder.write_jsonl(path)
        print(f"# spans: {len(recorder.starts)} written to "
              f"{path.relative_to(harness.ROOT)}")
    else:
        declared = declaration["end_to_end"]
        timing = harness.timing_metrics(result)
        print(f"# latency samples: {timing['latency_samples']}")
        values = {name: timing[name]
                  for name in ("ops_per_s", "lat_mid_us", "lat_tail_us")}
        values["setup_s"] = statistics.median(result.setup_seconds)
        values["peak_rss_mb"] = harness.peak_rss_mb(result)
        values.update(result.counts)

    names = [metric["name"] for metric in declared]
    missing = sorted(set(names) - set(values))
    extra = sorted(set(values) - set(names))
    if missing or extra:
        print(f"metric names differ from BENCHMARK.json: missing "
              f"{missing}, undeclared {extra}", file=sys.stderr)
        return 2

    label = " (quick: sizes are tiny, numbers are never comparable)"
    print(f"# workload {args.workload} seed {args.seed}"
          + (label if args.quick else ""))
    for why in result.failures:
        print(f"# FAILED: {why}")
    metrics = {}
    for metric in declared:
        value = values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{metric['name']:<44} {value:>16.6f} {metric['unit']}")
    print(f"{'ops_attempted':<44} {result.attempted:>16d} count")
    print(f"{'ops_failed':<44} {result.failed:>16d} count")
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0


def run_aa(args: argparse.Namespace, declaration: Dict[str, object]) -> int:
    """Run each workload ``--aa`` times, one seed each, and print every
    end-to-end metric's median, quartiles and spread against its bound."""
    names = ([args.workload] if args.workload else
             [w["name"] for w in declaration["workloads"]])
    bounds = {m["name"]: m["bound"] for m in declaration["end_to_end"]}
    for name in names:
        samples: Dict[str, List[float]] = {metric: [] for metric in bounds}
        for index in range(args.aa):
            command = [sys.executable, os.path.abspath(__file__),
                       "--workload", name, "--seed", str(args.seed + index),
                       "--seconds", str(args.seconds), "--trace", "0"]
            if args.quick:
                command.append("--quick")
            done = subprocess.run(command, capture_output=True, text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                return done.returncode
            report = json.loads(done.stdout.strip().splitlines()[-1])
            if not report["correct"]:
                print(f"{name}: seed {args.seed + index} failed "
                      f"{report['failed']} of {report['attempted']}")
            for metric in bounds:
                samples[metric].append(report["metrics"][metric]["value"])
        print(f"== {name}: {args.aa} runs, seeds {args.seed}.."
              f"{args.seed + args.aa - 1}")
        print(f"{'metric':<20}{'q1':>14}{'median':>14}{'q3':>14}"
              f"{'spread':>9}{'bound':>7}{'spread/bound':>14}")
        for metric, values in samples.items():
            q1, q2, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / q2
            print(f"{metric:<20}{q1:>14.4f}{q2:>14.4f}{q3:>14.4f}"
                  f"{spread:>9.4f}{bounds[metric]:>7.2f}"
                  f"{spread / bounds[metric]:>14.2f}")
    return 0


def _seed_range(text: str) -> List[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    declaration = harness.load_declaration()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[
        w["name"] for w in declaration["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=declaration["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes for the smoke test; the output "
                             "is labelled and never comparable")
    parser.add_argument("--aa", type=int, metavar="N",
                        help="run each workload N times and print the "
                             "spread of every end-to-end metric")
    parser.add_argument("--pin", type=_seed_range, metavar="LO-HI",
                        help="rewrite expected.json for these seeds")
    args = parser.parse_args(argv)
    if args.pin:
        import sim_workloads

        sim_workloads.pin_expected(args.pin)
        return 0
    if args.aa:
        return run_aa(args, declaration)
    if not args.workload:
        parser.error("--workload is required")
    return run_one(args, declaration)


if __name__ == "__main__":
    sys.exit(main())
