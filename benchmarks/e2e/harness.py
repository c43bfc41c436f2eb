"""Shared measurement plumbing for the end-to-end benchmark.

Every workload is a short fixed-count *pass* repeated K times on
identical inputs from an identical starting state, so chunk ``c`` and
operation ``i`` of pass ``k`` are the same work for every ``k``.  The
host this benchmark was sized on has two CPU speed states about 1.45x
apart with dwell times of seconds to minutes, and stalls of some 20 ms
whenever something else wants a CPU.  A median over passes flips
between the two speeds from run to run (measured inter-quartile spread
30%), while the fastest of K observations of one piece of work
converges on the quiet-host speed, the sooner the smaller the piece and
the larger K.  So throughput is computed over the *fastest of the K
copies of every chunk* (:func:`best_chunks`), latency over the *fastest
of the K copies of every operation* (:func:`best_latencies`), and the
whole benchmark runs on one CPU (:func:`pin_to_one_cpu`).  README.md
has the measurements.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import sys
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"

#: Set-up is repeated this many times per run, spread evenly between
#: the passes so that one slow stretch of the host cannot hold them
#: all; ``setup_s`` is the median.
SETUP_REPS = 5


def add_src_to_path() -> None:
    """Make ``repro`` importable from a source checkout."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def pin_to_one_cpu() -> None:
    """Confine this process, and every process it starts, to one CPU.

    The ``kv`` shard and its front end take turns: a request is in one
    or in the other.  Left on two virtual CPUs, each hand-over wakes an
    idle CPU through the hypervisor, which on the reference host costs
    100-300 microseconds and moves with the host's state; the median
    request then measures that wake-up (553 us unpinned, 270 us pinned,
    same code, same minute).  On one CPU the hand-over is a context
    switch.  The last CPU allowed is used: CPU 0 takes the guest's
    interrupts and read 30% slower.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def load_declaration() -> Dict[str, object]:
    """The committed ``BENCHMARK.json`` (names, units, bounds)."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@dataclass
class Chunk:
    """One timed slice of a pass: equal work at equal index across passes."""

    seconds: float
    ops: int
    #: per-operation latencies in seconds (caller-observed).
    latencies: Sequence[float] = ()


@dataclass
class WorkloadResult:
    """What one workload hands back to ``run.py``."""

    #: K passes, each a list of chunks (same length, same work per index).
    passes: List[List[Chunk]]
    #: chunks of one pass that execute concurrently (closed-loop clients).
    concurrency: int = 1
    #: the set-up samples in seconds (up to ``SETUP_REPS`` of them).
    setup_seconds: List[float] = field(default_factory=list)
    #: exact counts: hit_rate, resident_fraction, write_amp.
    counts: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: first few failure descriptions, printed for diagnosis.
    failures: List[str] = field(default_factory=list)
    #: peak resident set of helper processes already reaped (MB).
    child_rss_mb: float = 0.0
    #: per-layer metrics (traced run only).
    layers: Dict[str, float] = field(default_factory=dict)

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        if len(self.failures) < 8:
            self.failures.append(why)


def best_chunks(passes: List[List[Chunk]]) -> List[Chunk]:
    """The fastest copy of every chunk across the K passes."""
    if not passes:
        return []
    length = len(passes[0])
    if any(len(p) != length for p in passes):
        raise ValueError("passes differ in chunk count: not identical work")
    return [
        min((p[i] for p in passes), key=lambda chunk: chunk.seconds)
        for i in range(length)
    ]


def best_latencies(passes: List[List[Chunk]]) -> List[float]:
    """The fastest copy of every operation across the K passes, sorted."""
    best = array("d")
    for copies in zip(*passes):
        best.extend(map(min, zip(*(chunk.latencies for chunk in copies))))
    return sorted(best)


def percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an already sorted sequence."""
    if not sorted_values:
        raise ValueError("no samples")
    index = min(len(sorted_values) - 1, int(fraction * len(sorted_values)))
    return sorted_values[index]


def mean_between(sorted_values: Sequence[float], lo: float,
                 hi: float) -> float:
    """Mean of the samples from quantile ``lo`` up to quantile ``hi``."""
    count = len(sorted_values)
    first = min(int(lo * count), count - 1)
    part = sorted_values[first:max(int(hi * count), first + 1)]
    return sum(part) / len(part)


def best_seconds(passes: List[List[Chunk]]) -> float:
    """Time of one pass if every chunk ran at its fastest observed."""
    return sum(chunk.seconds for chunk in best_chunks(passes))


def timing_metrics(result: WorkloadResult) -> Dict[str, float]:
    """Throughput over the best chunk copies; latency figures over the
    best copy of every operation, and how many operations that is.

    ``lat_mid_us`` is the mean of the middle half of the operations and
    ``lat_tail_us`` the mean of the slowest tenth.  Both are means
    over a share of the distribution, not the value at one rank: every
    workload here mixes cheap and dear operations (a resident hit and a
    fault, a GET and a first-sight PUT, a store call and the one that
    runs the cleaner), and a single rank that falls where one kind ends
    and the next begins jumps with the seed (``lfs-churn``: 6.9 us at
    the 93rd percentile, 10.9 at the 95th, 126 at the 97th).
    """
    best = best_chunks(result.passes)
    ops = sum(chunk.ops for chunk in best)
    seconds = sum(chunk.seconds for chunk in best) / result.concurrency
    ordered = best_latencies(result.passes)
    return {
        "ops_per_s": ops / seconds,
        "lat_mid_us": mean_between(ordered, 0.25, 0.75) * 1e6,
        "lat_tail_us": mean_between(ordered, 0.90, 1.0) * 1e6,
        "lat_p50_us": percentile(ordered, 0.50) * 1e6,
        "lat_p95_us": percentile(ordered, 0.95) * 1e6,
        "lat_p99_us": percentile(ordered, 0.99) * 1e6,
        "latency_samples": len(ordered),
    }


def peak_rss_mb(result: WorkloadResult) -> float:
    """Peak resident set of this process plus its reaped helpers."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return own + result.child_rss_mb


def children_peak_rss_mb() -> float:
    """Largest resident set among child processes reaped so far."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def setup_due(index: int, passes: int) -> bool:
    """Whether one of the :data:`SETUP_REPS` set-ups belongs before pass
    ``index`` of ``passes`` (fewer when there are fewer passes)."""
    return (index == 0 or index * SETUP_REPS // passes
            != (index - 1) * SETUP_REPS // passes)


@contextmanager
def collector_paused() -> Iterator[None]:
    """Collect garbage now and not again until the block ends.

    A set-up allocates enough to trigger a full collection, and what
    that costs depends on this benchmark's own heap (K passes of latency
    lists), not on the set-up: samples of one ``lfs-churn`` set-up read
    25 ms or 45 ms by whether a collection fell inside, and the median
    of five flipped between the two from run to run (A/A spread 37-57%;
    23-26 ms every time with the collector paused).
    """
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def time_setup(samples: List[float], build: Callable[[], object],
               reset: Optional[Callable[[], None]] = None) -> object:
    """Run ``build`` once, append its duration to ``samples`` and return
    its product.  ``reset`` runs first, untimed, to drop whatever an
    earlier set-up left cached, so every sample pays the same cost."""
    if reset is not None:
        reset()
    with collector_paused():
        start = time.perf_counter()
        product = build()
        samples.append(time.perf_counter() - start)
    return product


def passes_for(seconds: float, pass_seconds: float) -> int:
    """How many identical passes fill ``--seconds`` of measurement.

    ``pass_seconds`` is the pass's duration on the reference host, a
    constant of the workload: the count depends only on the arguments,
    never on how fast this run happens to go.
    """
    return max(4, int(round(seconds / pass_seconds)))
