"""`repro perf pairs`: alternated parent/change runs of the e2e benchmark.

A performance claim here is judged on pairs of runs of
``benchmarks/e2e/run.py``, one from the parent tree and one from the
changed tree, with the same seed in both halves of a pair and the side
that runs first alternating (the parent first on even indices).  This
module runs those pairs and prints, for every end-to-end metric, each
side's median and quartiles, the change in the medians and how many
pairs the change won; it changes nothing in either tree.

Two checks ride along:

* *exact counts* — a metric in a ``ratio`` or ``count`` unit (hit rate,
  resident fraction, write amplification), and the attempted and failed
  operation counts, repeat exactly for a given seed, so the two halves
  of a pair must agree on them; :func:`main` exits 1 when one differs;
* *a calibration spin* — one fixed pure-Python loop timed beside each
  run.  The reference host has two CPU speed states about 1.45x apart
  (benchmarks/e2e/README.md), and a pair whose two spins differ by more
  than :data:`STRADDLE_RATIO` is printed ``straddled``: its halves ran in
  different states.  The spin detects a state change; it does not
  normalise the runs (a normaliser was tried and dropped).

A tree is a directory holding a checkout, or a git revision, which is
exported with ``git archive`` into a temporary directory.
"""

from __future__ import annotations

import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from contextlib import ExitStack
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

#: Two spins further apart than this put a pair's halves in different
#: CPU speed states (the geometric middle of 1.0 and 1.45).
STRADDLE_RATIO = 1.2

#: Metric units whose values are exact for a seed.
EXACT_UNITS = ("ratio", "count")

#: One run's report: the last line ``benchmarks/e2e/run.py`` prints.
Report = Dict[str, object]
Runner = Callable[[Path, str, int, bool], Report]


def calibration_spin() -> float:
    """Seconds one fixed pure-Python loop takes."""
    start = time.perf_counter()
    total = 0
    for i in range(400_000):
        total += i & 0xFF
    return time.perf_counter() - start


def run_e2e(tree: Path, workload: str, seed: int, quick: bool) -> Report:
    """One run of ``tree``'s own ``benchmarks/e2e/run.py``."""
    command = [sys.executable, str(tree / "benchmarks" / "e2e" / "run.py"),
               "--workload", workload, "--seed", str(seed), "--trace", "0"]
    if quick:
        command.append("--quick")
    done = subprocess.run(command, capture_output=True, text=True,
                          cwd=tree)
    if done.returncode != 0:
        raise RuntimeError(f"{tree}: run.py exited {done.returncode}: "
                           f"{done.stderr.strip()[-400:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def export_tree(revision: str, stack: ExitStack) -> Path:
    """A directory holding ``revision``: itself if it is a directory,
    else the revision exported by ``git archive`` (removed with
    ``stack``)."""
    if Path(revision).is_dir():
        return Path(revision)
    archive = subprocess.run(["git", "archive", "--format=tar", revision],
                             capture_output=True)
    if archive.returncode != 0:
        raise RuntimeError(f"git archive {revision}: "
                           f"{archive.stderr.decode().strip()}")
    where = Path(stack.enter_context(tempfile.TemporaryDirectory()))
    # The "data" filter (where this Python has it) refuses members that
    # would land outside ``where``.
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(where, **safe)
    return where


def _directions(tree: Path) -> Dict[str, str]:
    """``metric -> "lower" | "higher"`` from ``tree``'s BENCHMARK.json
    (empty without one)."""
    declared = tree / "BENCHMARK.json"
    if not declared.is_file():
        return {}
    metrics = json.loads(declared.read_text())["end_to_end"]
    return {m["name"]: m["better"] for m in metrics}


def _quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def run_pairs(parent: Path, change: Path, workload: str, pairs: int,
              seed: int = 1, quick: bool = False,
              runner: Runner = run_e2e,
              spin: Callable[[], float] = calibration_spin,
              out=sys.stdout) -> bool:
    """Run and report ``pairs`` alternated pairs; True when every exact
    count was equal and every run correct."""
    sides: Dict[str, List[Report]] = {"parent": [], "change": []}
    trees = {"parent": parent, "change": change}
    ok = True
    print(f"perf pairs: {workload}, {pairs} pair(s), seeds {seed}.."
          f"{seed + pairs - 1}, parent first on even indices"
          + (" (quick: never comparable)" if quick else ""), file=out)
    for index in range(pairs):
        order = ("parent", "change") if index % 2 == 0 else (
            "change", "parent")
        spun = {}
        for side in order:
            spun[side] = spin()
            sides[side].append(runner(trees[side], workload,
                                      seed + index, quick))
        fast, slow = sorted(spun.values())
        print(f"pair {index} seed {seed + index} {order[0]} first: spin "
              f"parent {spun['parent'] * 1e3:.1f} ms, change "
              f"{spun['change'] * 1e3:.1f} ms"
              + (" straddled" if slow > STRADDLE_RATIO * fast else ""),
              file=out)

    directions = _directions(change)
    print(f"{'metric':<20}{'unit':>6}{'parent q1':>12}{'median':>12}"
          f"{'q3':>12}{'change q1':>12}{'median':>12}{'q3':>12}"
          f"{'delta':>9}{'wins':>7}", file=out)
    exact_lines = []
    for name, first in sides["parent"][0]["metrics"].items():
        unit = first["unit"]
        before = [r["metrics"][name]["value"] for r in sides["parent"]]
        after = [r["metrics"][name]["value"] for r in sides["change"]]
        p1, pm, p3 = _quartiles(before)
        c1, cm, c3 = _quartiles(after)
        delta = f"{(cm - pm) / pm:+.1%}" if pm else "n/a"
        better = directions.get(name)
        if better is None:
            wins = "n/a"
        else:
            sign = -1 if better == "lower" else 1
            won = sum(1 for b, a in zip(before, after)
                      if sign * (a - b) > 0)
            wins = f"{won}/{pairs}"
        print(f"{name:<20}{unit:>6}{p1:>12.6g}{pm:>12.6g}{p3:>12.6g}"
              f"{c1:>12.6g}{cm:>12.6g}{c3:>12.6g}{delta:>9}{wins:>7}",
              file=out)
        if unit in EXACT_UNITS:
            exact_lines.append((name, before, after))
    for key in ("attempted", "failed"):
        exact_lines.append((key, [r[key] for r in sides["parent"]],
                            [r[key] for r in sides["change"]]))
    for name, before, after in exact_lines:
        unequal = [i for i, (b, a) in enumerate(zip(before, after))
                   if b != a]
        if unequal:
            ok = False
            print(f"exact {name}: DIFFERS in pair(s) "
                  f"{', '.join(map(str, unequal))}", file=out)
        else:
            print(f"exact {name}: equal in {pairs}/{pairs} pairs", file=out)
    incorrect = sum(1 for side in sides.values() for r in side
                    if not r["correct"])
    if incorrect:
        ok = False
        print(f"runs reporting incorrect output: {incorrect}", file=out)
    return ok


def main(parent: str, change: str, workload: str, pairs: int, seed: int,
         quick: bool) -> int:
    """``repro perf pairs``: 0 when every exact count is equal, 1 when
    one differs or a run is incorrect."""
    if pairs < 1:
        print("perf pairs: --pairs must be at least 1", file=sys.stderr)
        return 2
    if hasattr(os, "sched_setaffinity"):
        # The spin runs where run.py pins itself: the last allowed CPU.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    with ExitStack() as stack:
        try:
            trees = [export_tree(rev, stack) for rev in (parent, change)]
            ok = run_pairs(trees[0], trees[1], workload, pairs, seed, quick)
        except RuntimeError as exc:     # a tree or a run that failed
            print(f"perf pairs: {exc}", file=sys.stderr)
            return 2
    return 0 if ok else 1
