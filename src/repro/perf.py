"""Performance harness: compressor throughput and end-to-end sim rates.

The repo's simulated results never depend on host wall-clock, but the
*cost of running the reproduction* does, and this PR series tracks that
trajectory.  This module measures two layers:

* **kernel throughput** — MB/s of each optimized compressor next to the
  frozen seed implementation (:mod:`repro.compression._seed_reference`),
  per content kind and aggregated.  Because both kernels run in the same
  process on the same pages, their ratio ("speedup") is largely
  machine-independent, which is what CI regression checks compare.
* **end-to-end simulation rate** — pages of reference stream processed
  per second of host time for each named workload, with the full stack
  (VM, pager, compression cache, sampler) engaged.

Results are written as ``BENCH_compression.json`` and ``BENCH_sim.json``
at the repository root; ``benchmarks/perf_baseline.json`` holds the
committed speedup baselines the ``--check`` mode compares against.

All timings are best-of-N (minimum over ``reps`` repetitions), the
standard way to strip scheduler noise from CPU-bound microbenchmarks.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .compression import create
from .compression import vectorized
from .compression._seed_reference import SeedLzrw1, SeedLzss
from .mem.page import DEFAULT_PAGE_SIZE, mbytes
from .sim.engine import SimulationEngine
from .sim.machine import Machine, MachineConfig
from .workloads import contentgen

#: Tolerated fraction of the committed baseline speedup before --check
#: fails: ratios are stable across machines, but not to the last percent.
CHECK_TOLERANCE = 0.8

#: Maximum tolerated drop of a workload's simulator pages/s below the
#: committed per-workload baseline before --check fails.  The committed
#: values are themselves conservative (see perf_baseline.json), so this
#: catches algorithmic regressions, not host variance.
SIM_CHECK_TOLERANCE = 0.30

_perf_counter = time.perf_counter


def _corpus_kinds(pages_per_kind: int,
                  page_size: int = DEFAULT_PAGE_SIZE
                  ) -> Dict[str, List[bytes]]:
    """Representative pages per content kind (see contentgen docstrings)."""
    dictionary = contentgen.make_dictionary()
    idx = range(pages_per_kind)
    return {
        "tiled": [contentgen.repeating_pattern(i, page_size=page_size)
                  for i in idx],
        "dp": [contentgen.dp_band_values(i, page_size=page_size)
               for i in idx],
        "random": [contentgen.incompressible(i, page_size=page_size)
                   for i in idx],
        "index": [contentgen.index_page(i, page_size=page_size)
                  for i in idx],
        "ctab": [contentgen.cache_table_page(i, page_size=page_size)
                 for i in idx],
        "text": [contentgen.text_page_random(i, dictionary,
                                             page_size=page_size)
                 for i in idx],
        "textc": [contentgen.text_page_clustered(i, dictionary,
                                                 page_size=page_size)
                  for i in idx],
        "zeros": [bytes(page_size) for _ in idx],
    }


def _time_batch(compress: Callable[[bytes], object],
                pages: Sequence[bytes], reps: int) -> float:
    """Best-of-``reps`` seconds to compress every page once."""
    best = float("inf")
    for _ in range(reps):
        t0 = _perf_counter()
        for page in pages:
            compress(page)
        t = _perf_counter() - t0
        if t < best:
            best = t
    return best


def bench_compression(pages_per_kind: int = 16, reps: int = 5,
                      page_size: int = DEFAULT_PAGE_SIZE) -> Dict:
    """Throughput of the optimized kernels next to the frozen seed ones.

    Returns the dict that becomes ``BENCH_compression.json``: per-kind
    and aggregate MB/s for each algorithm, optimized ("new") and seed,
    plus their ratio.  Seed and new run interleaved in the same process
    so the speedups are apples-to-apples.
    """
    kinds = _corpus_kinds(pages_per_kind, page_size)
    algorithms = {
        "lzrw1": (create("lzrw1"), SeedLzrw1()),
        "lzss": (create("lzss"), SeedLzss()),
    }
    result: Dict = {
        "page_size": page_size,
        "pages_per_kind": pages_per_kind,
        "reps": reps,
        "kinds": {},
        "aggregate": {},
    }
    totals = {name: {"new": 0.0, "seed": 0.0}
              for name in algorithms}
    total_bytes = 0
    for kind, pages in kinds.items():
        nbytes = sum(len(p) for p in pages)
        total_bytes += nbytes
        row: Dict = {}
        for name, (new, seed) in algorithms.items():
            t_new = _time_batch(new.compress, pages, reps)
            t_seed = _time_batch(seed.compress, pages, reps)
            totals[name]["new"] += t_new
            totals[name]["seed"] += t_seed
            row[name] = {
                "new_mb_s": round(nbytes / t_new / 1e6, 3),
                "seed_mb_s": round(nbytes / t_seed / 1e6, 3),
                "speedup": round(t_seed / t_new, 3),
            }
        result["kinds"][kind] = row
    for name in algorithms:
        t_new = totals[name]["new"]
        t_seed = totals[name]["seed"]
        kind_speedups = [result["kinds"][k][name]["speedup"]
                         for k in result["kinds"]]
        result["aggregate"][name] = {
            "new_mb_s": round(total_bytes / t_new / 1e6, 3),
            "seed_mb_s": round(total_bytes / t_seed / 1e6, 3),
            # total-time ratio: time-weighted, dominated by slow kinds
            "speedup": round(t_seed / t_new, 3),
            # unweighted mean of the per-kind ratios
            "mean_kind_speedup": round(
                sum(kind_speedups) / len(kind_speedups), 3
            ),
        }
    return result


#: Kernels with a numpy-vectorized variant (see compression/vectorized.py);
#: lzrw1/lzss vectorize only their hash precompute stage, cpack only the
#: packing of its bit stream.
FAST_KERNELS = (
    "rle", "wk", "varint-delta", "lzrw1", "lzss", "fpc", "bdi", "cpack",
)


def bench_fast_kernels(pages_per_kind: int = 16, reps: int = 5,
                       page_size: int = DEFAULT_PAGE_SIZE
                       ) -> Optional[Dict]:
    """Scalar vs vectorized throughput for the ``fast=``-capable kernels.

    Both variants of each kernel are pinned bit-identical by the test
    suite, so this measures the same work done two ways; the ratio is
    machine-independent for the same reason the seed/new ratio is.
    Returns ``None`` when numpy is unavailable (nothing to compare).
    """
    if not vectorized.HAVE_NUMPY:
        return None
    kinds = _corpus_kinds(pages_per_kind, page_size)
    variants = {
        name: (create(name), create(name, fast=False))
        for name in FAST_KERNELS
    }
    result: Dict = {
        "page_size": page_size,
        "pages_per_kind": pages_per_kind,
        "reps": reps,
        "kinds": {},
        "aggregate": {},
    }
    totals = {name: {"fast": 0.0, "scalar": 0.0} for name in variants}
    total_bytes = 0
    for kind, pages in kinds.items():
        nbytes = sum(len(p) for p in pages)
        total_bytes += nbytes
        row: Dict = {}
        for name, (fast, scalar) in variants.items():
            t_fast = _time_batch(fast.compress, pages, reps)
            t_scalar = _time_batch(scalar.compress, pages, reps)
            totals[name]["fast"] += t_fast
            totals[name]["scalar"] += t_scalar
            row[name] = {
                "fast_mb_s": round(nbytes / t_fast / 1e6, 3),
                "scalar_mb_s": round(nbytes / t_scalar / 1e6, 3),
                "speedup": round(t_scalar / t_fast, 3),
            }
        result["kinds"][kind] = row
    for name in variants:
        t_fast = totals[name]["fast"]
        t_scalar = totals[name]["scalar"]
        result["aggregate"][name] = {
            "fast_mb_s": round(total_bytes / t_fast / 1e6, 3),
            "scalar_mb_s": round(total_bytes / t_scalar / 1e6, 3),
            "speedup": round(t_scalar / t_fast, 3),
        }
    return result


def bench_micro(reps: int = 5) -> Dict:
    """Ops/s micro-benchmarks for the simulator's hot data structures.

    Three structures dominate the per-reference path: the resident-set
    :class:`~repro.mem.lru.LruList`, the :class:`FragmentStore` fragment
    map, and the :class:`CompressionSampler` memo.  Each is timed doing
    the operation mix the simulator actually issues; figures are ops/s
    (host-absolute — track the trajectory, don't compare across hosts).
    """
    from .compression.sampler import CompressionSampler
    from .mem.lru import LruList
    from .mem.page import PageId
    from .storage.blockfs import BlockFileSystem
    from .storage.disk import DiskModel
    from .storage.fragstore import FragmentStore

    def best_of(fn: Callable[[], int]) -> float:
        best = float("inf")
        ops = 1
        for _ in range(reps):
            t0 = _perf_counter()
            ops = fn()
            t = _perf_counter() - t0
            if t < best:
                best = t
        return ops / best

    def lru_touch_evict() -> int:
        lru: LruList = LruList()
        pages = [PageId(0, n) for n in range(512)]
        ops = 0
        for round_ in range(20):
            for page in pages:
                lru.touch(page, float(round_))
                ops += 1
        for page in pages:
            lru.hit(page, 99.0)
            ops += 1
        while len(lru):
            lru.evict()
            ops += 1
        return ops

    def fragstore_put_get_gc() -> int:
        store = FragmentStore(BlockFileSystem(DiskModel.rz57()),
                              gc_min_bytes=0)
        payload = b"m" * 1500
        ops = 0
        for n in range(256):
            store.put(PageId(0, n), payload)
            ops += 1
        for n in range(256):
            store.get(PageId(0, n))
            ops += 1
        for n in range(0, 256, 2):
            store.free(PageId(0, n))
            ops += 1
        store.maybe_collect(force=True)
        ops += 1
        return ops

    def sampler_hit_miss() -> int:
        sampler = CompressionSampler(create("lzrw1"))
        pages = [bytes([n & 0xFF]) * 4096 for n in range(32)]
        ops = 0
        for page in pages:        # misses: one real compression each
            sampler.compressed_size(page)
            ops += 1
        for _ in range(30):       # hits: memo probes only
            for page in pages:
                sampler.compressed_size(page)
                ops += 1
        return ops

    return {
        "reps": reps,
        "lru_touch_evict_ops_s": round(best_of(lru_touch_evict), 1),
        "fragstore_put_get_gc_ops_s": round(best_of(fragstore_put_get_gc), 1),
        "sampler_hit_miss_ops_s": round(best_of(sampler_hit_miss), 1),
    }


class _TimedReferences:
    """Iterator wrapper measuring per-reference engine processing time.

    The engine pulls references one at a time, so the gap between one
    ``__next__`` *returning* and the next being *entered* is exactly the
    engine's processing time for the returned reference.  Feeding those
    gaps (µs) into a :class:`LatencyRecorder` yields per-reference
    latency percentiles without touching the engine's hot loop.
    """

    __slots__ = ("_it", "_recorder", "_last")

    def __init__(self, refs, recorder) -> None:
        self._it = iter(refs)
        self._recorder = recorder
        self._last: Optional[int] = None

    def __iter__(self) -> "_TimedReferences":
        return self

    def __next__(self):
        now = time.perf_counter_ns()
        if self._last is not None:
            self._recorder.record(max(1, (now - self._last) // 1000))
        try:
            ref = next(self._it)
        except StopIteration:
            self._last = None
            raise
        self._last = time.perf_counter_ns()
        return ref


def bench_sim(scale: float = 0.12,
              workloads: Optional[Sequence[str]] = None,
              reps: int = 3,
              fast: Optional[bool] = None) -> Dict:
    """End-to-end reference-stream throughput per named workload.

    Each workload runs ``reps`` times, each on a freshly built machine,
    and the fastest wall time is reported — the standard noise-robust
    estimator (host scheduling can only slow a run down, never speed it
    up), matching the kernel bench's best-of-reps.  The figure of merit
    is host-side pages (references) per second, the rate the whole
    reproduction pipeline sustains.  Simulated results are deterministic,
    so every rep produces the identical RunResult; only wall time varies.

    One additional *timed* rep per workload wraps the reference stream in
    :class:`_TimedReferences` to collect per-reference latency
    percentiles (p50/p95/p99) — the tail tells a different story than
    the mean: compression-heavy faults are orders of magnitude slower
    than resident hits, and only the percentiles expose that mix.
    """
    from .cli import WORKLOAD_FACTORIES  # late import: cli imports us
    from .service.latency import LatencyRecorder

    mode = "scalar" if fast is False else (
        "fast" if vectorized.HAVE_NUMPY else "scalar"
    )
    names = list(workloads) if workloads else sorted(WORKLOAD_FACTORIES)
    result: Dict = {"scale": scale, "reps": reps, "mode": mode,
                    "workloads": {}}
    total_refs = 0
    total_wall = 0.0
    for name in names:
        factory = WORKLOAD_FACTORIES[name]
        best_wall = None
        for _ in range(max(1, reps)):
            workload = factory(scale)
            machine = Machine(
                MachineConfig(memory_bytes=mbytes(6 * scale), fast=fast),
                workload.build(),
            )
            refs = list(workload.references())
            engine = SimulationEngine(machine)
            t0 = _perf_counter()
            run = engine.run(iter(refs))
            wall = _perf_counter() - t0
            if best_wall is None or wall < best_wall:
                best_wall = wall
        # Dedicated timed rep: the wrapper adds a clock read per
        # reference, so it never contributes to the best-of wall times.
        recorder = LatencyRecorder()
        workload = factory(scale)
        machine = Machine(
            MachineConfig(memory_bytes=mbytes(6 * scale), fast=fast),
            workload.build(),
        )
        SimulationEngine(machine).run(_TimedReferences(refs, recorder))
        total_refs += len(refs)
        total_wall += best_wall
        result["workloads"][name] = {
            "references": len(refs),
            "wall_seconds": round(best_wall, 4),
            "pages_per_second": round(len(refs) / best_wall, 1),
            "latency_us": recorder.snapshot(percentiles=(50.0, 95.0, 99.0)),
            "sampler_hit_rate": round(run.sampler_hit_rate, 4),
            "simulated_seconds": round(run.elapsed_seconds, 3),
        }
    # Sum of per-workload best walls: the noise-robust aggregate (each
    # term is its workload's minimum), the single refs/s figure the
    # baseline tracks across optimization PRs.
    result["aggregate"] = {
        "references": total_refs,
        "wall_seconds": round(total_wall, 4),
        "pages_per_second": round(total_refs / total_wall, 1)
        if total_wall else 0.0,
    }
    return result


def bench_stream_replay(references: int = 10_000_000,
                        scale: float = 0.05) -> Dict:
    """Replay a long binary multiprogram trace in a fresh subprocess.

    Records the multiprogram workload once, repeats the packed block to
    reach ``references`` events, then replays it through ``trace-replay``
    (mmap streaming reader + engine batch dispatch) in a child process —
    a child so its ``ru_maxrss`` measures the replay alone.  The point of
    the peak-RSS figure: it stays near the mapped trace size instead of
    the gigabytes that 10M+ per-reference python objects would cost.
    """
    import os
    import re
    import subprocess
    import sys
    import tempfile

    from .cli import WORKLOAD_FACTORIES
    from .workloads import btrace

    workload = WORKLOAD_FACTORIES["multiprogram"](scale)
    workload.build()
    block = bytearray()
    base = 0
    for ref in workload.references():
        block += btrace.pack_ref(ref)
        base += 1
    repeat = max(1, -(-references // base))
    with tempfile.TemporaryDirectory(prefix="repro-btrace-") as tmp:
        path = os.path.join(tmp, "multiprogram.btrace")
        with btrace.BinaryTraceWriter(path) as writer:
            raw = bytes(block)
            for _ in range(repeat):
                writer.append_raw(raw, base)
            total = writer.count
        trace_bytes = os.path.getsize(path)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in sys.path if p
        )
        t0 = _perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "trace-replay", path,
             "--workload", "multiprogram", "--scale", str(scale)],
            capture_output=True, text=True, env=env,
        )
        wall = _perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(
            f"trace-replay subprocess failed "
            f"(exit {proc.returncode}): {proc.stderr.strip()}"
        )
    match = re.search(r"peak RSS ([0-9.]+) MB", proc.stdout)
    peak_mb = float(match.group(1)) if match else None
    return {
        "workload": "multiprogram",
        "scale": scale,
        "references": total,
        "repeat": repeat,
        "trace_bytes": trace_bytes,
        "wall_seconds": round(wall, 2),
        "references_per_second": round(total / wall, 1),
        "peak_rss_mb": peak_mb,
    }


def bench_fault_overhead(
    scale: float = 0.05,
    reps: int = 8,
    baseline_path: Optional[Path] = None,
) -> Dict:
    """Measure what the fault layer costs when no plan is installed.

    Two measurements:

    * ``vs_baseline_percent`` — the check the harness reports: how far
      the default (no-plan) thrasher throughput falls below the
      committed ``sim_pages_per_second`` floor in the baseline file,
      which predates the fault subsystem.  The disabled layer is pure
      ``None`` checks plus CRC32 bookkeeping, so staying at or above the
      pre-fault-layer floor confirms the disabled overhead is within
      the target.  ``None`` when the baseline lacks a matching-scale
      thrasher floor.
    * ``inert_ab_percent`` — a same-process A/B against an *inert* plan
      (all rates zero: retry wrappers, injector probes, and degradation
      bookkeeping all engage but never fire).  This bounds the cost of
      *enabling* the layer, a strict superset of the disabled work.
    """
    from .cli import WORKLOAD_FACTORIES  # late import: cli imports us
    from .faults.plan import FaultPlan

    factory = WORKLOAD_FACTORIES["thrasher"]
    inert = FaultPlan.from_dict({})
    # One simulated run is ~20 ms — far too short for a stable A/B — so
    # each timing sample batches several fresh runs, and samples for the
    # two arms interleave so clock drift cancels instead of biasing one.
    inner = 5

    def prepare(plan: Optional[FaultPlan]):
        prepared = []
        for _ in range(inner):
            workload = factory(scale)
            machine = Machine(
                MachineConfig(memory_bytes=mbytes(6 * scale),
                              fault_plan=plan),
                workload.build(),
            )
            prepared.append((SimulationEngine(machine),
                             list(workload.references())))
        return prepared

    def sample(plan: Optional[FaultPlan]) -> Tuple[float, int]:
        prepared = prepare(plan)
        refs = sum(len(r) for _, r in prepared)
        t0 = _perf_counter()
        for engine, ref_list in prepared:
            engine.run(iter(ref_list))
        return _perf_counter() - t0, refs

    # Warm up BOTH arms: the process-wide kernel-result cache means the
    # first arm to run pays all the real compression work.
    sample(None)
    sample(inert)
    t_disabled = float("inf")
    t_inert = float("inf")
    refs_per_sample = 0
    for _ in range(max(1, reps)):
        wall, refs_per_sample = sample(None)
        t_disabled = min(t_disabled, wall)
        wall, _ = sample(inert)
        t_inert = min(t_inert, wall)
    inert_ab = max(0.0, (t_inert - t_disabled) / t_disabled * 100.0)
    pages_per_second = refs_per_sample / t_disabled

    vs_baseline: Optional[float] = None
    floor = None
    if baseline_path is not None and baseline_path.is_file():
        baseline = json.loads(baseline_path.read_text())
        floors = baseline.get("sim_pages_per_second") or {}
        if baseline.get("sim_scale") == scale and "thrasher" in floors:
            floor = floors["thrasher"]
            vs_baseline = max(
                0.0, (floor - pages_per_second) / floor * 100.0
            )

    return {
        "workload": "thrasher",
        "scale": scale,
        "reps": reps,
        "disabled_wall_seconds": round(t_disabled, 4),
        "inert_plan_wall_seconds": round(t_inert, 4),
        "disabled_pages_per_second": round(pages_per_second, 1),
        "baseline_floor_pages_per_second": floor,
        "vs_baseline_percent": (
            None if vs_baseline is None else round(vs_baseline, 2)
        ),
        "inert_ab_percent": round(inert_ab, 2),
    }


def bench_control(
    scale: float = 0.05,
    reps: int = 8,
    baseline_path: Optional[Path] = None,
) -> Dict:
    """Measure what the control plane costs when it is not enabled.

    Mirrors :func:`bench_fault_overhead` for the closed-loop controller
    (repro.control):

    * ``vs_baseline_percent`` — the gate: how far the default
      (controller-off) thrasher throughput falls below the committed
      ``sim_pages_per_second`` floor, which predates the control plane.
      The disabled path is one ``None`` check per reference in the
      engine plus ``None`` checks on the fault/demotion paths, so
      staying at the pre-control floor confirms the disabled overhead
      is within the <2% target.  ``None`` when the baseline lacks a
      matching-scale thrasher floor.
    * ``enabled_ab_percent`` — a same-process A/B against a run with
      the controller fully enabled (hotness tracking, telemetry, and
      the evaluation tick all engage).  This bounds the cost of turning
      the loop on, a strict superset of the disabled work.
    """
    from .cli import WORKLOAD_FACTORIES  # late import: cli imports us
    from .control.controller import ControlConfig

    factory = WORKLOAD_FACTORIES["thrasher"]
    enabled = ControlConfig()
    inner = 5

    def prepare(control: Optional[ControlConfig]):
        prepared = []
        for _ in range(inner):
            workload = factory(scale)
            machine = Machine(
                MachineConfig(memory_bytes=mbytes(6 * scale),
                              control=control),
                workload.build(),
            )
            prepared.append((SimulationEngine(machine),
                             list(workload.references())))
        return prepared

    def sample(control: Optional[ControlConfig]) -> Tuple[float, int]:
        prepared = prepare(control)
        refs = sum(len(r) for _, r in prepared)
        t0 = _perf_counter()
        for engine, ref_list in prepared:
            engine.run(iter(ref_list))
        return _perf_counter() - t0, refs

    # Warm up BOTH arms (shared kernel-result cache).
    sample(None)
    sample(enabled)
    t_disabled = float("inf")
    t_enabled = float("inf")
    refs_per_sample = 0
    for _ in range(max(1, reps)):
        wall, refs_per_sample = sample(None)
        t_disabled = min(t_disabled, wall)
        wall, _ = sample(enabled)
        t_enabled = min(t_enabled, wall)
    enabled_ab = max(0.0, (t_enabled - t_disabled) / t_disabled * 100.0)
    pages_per_second = refs_per_sample / t_disabled

    vs_baseline: Optional[float] = None
    floor = None
    if baseline_path is not None and baseline_path.is_file():
        baseline = json.loads(baseline_path.read_text())
        floors = baseline.get("sim_pages_per_second") or {}
        if baseline.get("sim_scale") == scale and "thrasher" in floors:
            floor = floors["thrasher"]
            vs_baseline = max(
                0.0, (floor - pages_per_second) / floor * 100.0
            )

    return {
        "workload": "thrasher",
        "scale": scale,
        "reps": reps,
        "disabled_wall_seconds": round(t_disabled, 4),
        "enabled_wall_seconds": round(t_enabled, 4),
        "disabled_pages_per_second": round(pages_per_second, 1),
        "baseline_floor_pages_per_second": floor,
        "vs_baseline_percent": (
            None if vs_baseline is None else round(vs_baseline, 2)
        ),
        "enabled_ab_percent": round(enabled_ab, 2),
    }


def bench_adaptive(
    scale: float = 0.05,
    reps: int = 8,
    workloads: Sequence[str] = ("thrasher", "compare"),
) -> Dict:
    """Measure the adaptive selector's CPU cost against plain lzrw1.

    Same-process A/B, interleaved samples, best-of-reps: each sample
    runs one freshly built machine per workload with the given kernel
    and times the whole engine run.  Both arms are warmed first (the
    process-wide result cache means the first arm to run pays all the
    real compression work), so the reported ``overhead_percent`` is the
    steady-state selector cost — the kind fingerprint, memo probes, and
    periodic re-trials — not the one-time trial compressions.  Target:
    under 10%.
    """
    from .cli import WORKLOAD_FACTORIES  # late import: cli imports us
    from .compression.sampler import clear_shared_results

    inner = 3

    def prepare(kernel: str):
        prepared = []
        for _ in range(inner):
            for name in workloads:
                workload = WORKLOAD_FACTORIES[name](scale)
                machine = Machine(
                    MachineConfig(memory_bytes=mbytes(6 * scale),
                                  compressor=kernel),
                    workload.build(),
                )
                prepared.append((SimulationEngine(machine),
                                 list(workload.references())))
        return prepared

    def sample(kernel: str) -> Tuple[float, int]:
        prepared = prepare(kernel)
        refs = sum(len(r) for _, r in prepared)
        t0 = _perf_counter()
        for engine, ref_list in prepared:
            engine.run(iter(ref_list))
        return _perf_counter() - t0, refs

    clear_shared_results()
    sample("lzrw1")
    sample("adaptive")
    t_single = float("inf")
    t_adaptive = float("inf")
    refs_per_sample = 0
    for _ in range(max(1, reps)):
        wall, refs_per_sample = sample("lzrw1")
        t_single = min(t_single, wall)
        wall, _ = sample("adaptive")
        t_adaptive = min(t_adaptive, wall)
    overhead = max(0.0, (t_adaptive - t_single) / t_single * 100.0)
    return {
        "workloads": list(workloads),
        "scale": scale,
        "reps": reps,
        "single_kernel": "lzrw1",
        "single_wall_seconds": round(t_single, 4),
        "adaptive_wall_seconds": round(t_adaptive, 4),
        "single_pages_per_second": round(refs_per_sample / t_single, 1),
        "adaptive_pages_per_second": round(
            refs_per_sample / t_adaptive, 1
        ),
        "overhead_percent": round(overhead, 2),
    }


def _subsystem_of(filename: str) -> str:
    """Attribution bucket for a profiled code object's filename."""
    pos = filename.replace("\\", "/").find("/repro/")
    if pos >= 0:
        rest = filename.replace("\\", "/")[pos + len("/repro/"):]
        head = rest.split("/", 1)[0]
        if head.endswith(".py"):
            head = head[:-3]
        return f"repro.{head}"
    if filename.startswith("~") or filename.startswith("<"):
        return "builtins"
    return "stdlib/other"


def profile_sim(scale: float = 0.12, top_n: int = 25,
                workloads: Optional[Sequence[str]] = None) -> str:
    """cProfile the simulator hot path; returns a formatted report.

    Machines and reference streams are built *before* the profiler turns
    on, so the report covers :meth:`SimulationEngine.run` only — workload
    content generation would otherwise dominate and mislead (it runs once
    per machine, while the run loop runs once per reference).

    The report has two sections: per-subsystem ``tottime`` totals (which
    package the interpreter actually spent time in) and the classic
    top-``top_n`` functions by cumulative time.
    """
    import cProfile
    import io
    import pstats

    from .cli import WORKLOAD_FACTORIES  # late import: cli imports us

    names = list(workloads) if workloads else sorted(WORKLOAD_FACTORIES)
    runs = []
    for name in names:
        workload = WORKLOAD_FACTORIES[name](scale)
        machine = Machine(
            MachineConfig(memory_bytes=mbytes(6 * scale)),
            workload.build(),
        )
        runs.append((machine, list(workload.references())))

    profiler = cProfile.Profile()
    profiler.enable()
    for machine, refs in runs:
        SimulationEngine(machine).run(iter(refs))
    profiler.disable()

    stats = pstats.Stats(profiler)
    total = stats.total_tt or 1e-12
    by_subsystem: Dict[str, float] = {}
    for (filename, _lineno, _func), row in stats.stats.items():  # type: ignore[attr-defined]
        tottime = row[2]
        bucket = _subsystem_of(filename)
        by_subsystem[bucket] = by_subsystem.get(bucket, 0.0) + tottime

    lines = [
        "simulator hot-path profile",
        f"scale {scale}, workloads: {', '.join(names)}",
        f"profiled time: {stats.total_tt:.3f} s "
        "(engine.run only; machine and reference construction excluded)",
        "",
        "per-subsystem tottime:",
    ]
    for bucket, seconds in sorted(
        by_subsystem.items(), key=lambda kv: kv[1], reverse=True
    ):
        lines.append(
            f"  {bucket:<20} {seconds:8.3f} s  {seconds / total:6.1%}"
        )
    lines += ["", f"top {top_n} functions by cumulative time:"]
    buf = io.StringIO()
    pstats.Stats(profiler, stream=buf).sort_stats(
        "cumulative"
    ).print_stats(top_n)
    lines.append(buf.getvalue().rstrip())
    return "\n".join(lines) + "\n"


def _check_sim_floors(sim: Dict, floors: Dict, aggregate_floor,
                      label: str, failures: List[str]) -> None:
    """Apply per-workload and aggregate pages/s floors to one sim run."""
    for name, expected in floors.items():
        row = sim["workloads"].get(name)
        if row is None:
            failures.append(f"{name}: in baseline but not measured{label}")
            continue
        got = row["pages_per_second"]
        floor = expected * (1.0 - SIM_CHECK_TOLERANCE)
        if got < floor:
            failures.append(
                f"{name}: {got:.0f} pages/s{label} regressed more than "
                f"{SIM_CHECK_TOLERANCE:.0%} below the committed "
                f"baseline {expected:.0f} pages/s (floor {floor:.0f})"
            )
    aggregate = (sim.get("aggregate") or {}).get("pages_per_second")
    if aggregate_floor and aggregate is not None:
        floor = aggregate_floor * (1.0 - SIM_CHECK_TOLERANCE)
        if aggregate < floor:
            failures.append(
                f"aggregate: {aggregate:.0f} refs/s{label} is more than "
                f"{SIM_CHECK_TOLERANCE:.0%} below the committed "
                f"{aggregate_floor:.0f} refs/s (floor {floor:.0f})"
            )


def check_against_baseline(compression: Dict, baseline_path: Path,
                           sim: Optional[Dict] = None,
                           sim_scalar: Optional[Dict] = None) -> List[str]:
    """Compare measurements against the committed baseline.

    Returns a list of failure messages (empty when everything passes).
    Two kinds of checks:

    * kernel speedup *ratios* — machine-independent (two kernels timed in
      the same process), compared against ``aggregate_speedup`` with
      :data:`CHECK_TOLERANCE` slack;
    * per-workload simulator ``pages_per_second`` — host-absolute, so the
      committed ``sim_pages_per_second`` values are deliberately
      conservative and a workload only fails when it drops more than
      :data:`SIM_CHECK_TOLERANCE` below them (catching reintroduced
      linear scans, not scheduler noise).  Skipped when ``sim`` is None
      (``--skip-sim``) or the baseline predates the sim floors.
    """
    baseline = json.loads(baseline_path.read_text())
    failures: List[str] = []
    for name, expected in baseline["aggregate_speedup"].items():
        got = compression["aggregate"][name]["speedup"]
        floor = expected * CHECK_TOLERANCE
        if got < floor:
            failures.append(
                f"{name}: aggregate speedup {got:.2f}x is below "
                f"{floor:.2f}x ({CHECK_TOLERANCE:.0%} of the committed "
                f"baseline {expected:.2f}x)"
            )
    fast_baseline = baseline.get("fast_kernel_speedup")
    fast_measured = compression.get("fast")
    if fast_baseline and fast_measured is not None:
        for name, expected in fast_baseline.items():
            row = fast_measured["aggregate"].get(name)
            if row is None:
                failures.append(
                    f"{name}: in fast-kernel baseline but not measured"
                )
                continue
            floor = expected * CHECK_TOLERANCE
            if row["speedup"] < floor:
                failures.append(
                    f"{name}: vectorized/scalar speedup "
                    f"{row['speedup']:.2f}x is below {floor:.2f}x "
                    f"({CHECK_TOLERANCE:.0%} of the committed baseline "
                    f"{expected:.2f}x)"
                )
    expected_scale = baseline.get("sim_scale")

    def scale_matches(run: Optional[Dict]) -> bool:
        # Throughput varies with workload scale; floors only make sense
        # at the scale they were recorded at.
        return (run is not None
                and (expected_scale is None
                     or run.get("scale") == expected_scale))

    if scale_matches(sim) and baseline.get("sim_pages_per_second"):
        _check_sim_floors(
            sim, baseline["sim_pages_per_second"],
            baseline.get("sim_aggregate_pages_per_second"),
            "", failures,
        )
    if scale_matches(sim_scalar) and baseline.get(
        "sim_pages_per_second_scalar"
    ):
        _check_sim_floors(
            sim_scalar, baseline["sim_pages_per_second_scalar"],
            baseline.get("sim_aggregate_pages_per_second_scalar"),
            " (scalar)", failures,
        )
    return failures


#: Tolerated fraction of the committed service ops/s floor, mirroring
#: SIM_CHECK_TOLERANCE: the committed floors are conservative and
#: host-absolute, so only large drops indicate an algorithmic problem.
SERVICE_CHECK_TOLERANCE = 0.30


def check_service_baseline(bench: Dict, baseline_path: Path) -> List[str]:
    """Compare a BENCH_service.json payload against the baseline.

    Three gates, from hard to soft:

    * **ledger digest** — exact.  Applies only when the bench ran the
      committed spec (same spec digest); a digest mismatch on the same
      spec is a determinism regression, the one failure with no
      tolerance.
    * **throughput floor** — best shard count's ops/s must stay within
      :data:`SERVICE_CHECK_TOLERANCE` of ``min_ops_per_second``
      (conservative, host-absolute; catches serialization bugs, not
      scheduler noise).
    * **scaling floor** — ``speedup`` vs 1 shard must reach
      ``min_speedup``, but only when the host has at least
      ``min_speedup_cpus`` CPUs: shard processes cannot run in parallel
      on fewer cores, so the check would measure the machine, not the
      code.  Skips are reported by the caller's echo, not silent
      failures.
    """
    from .sweep import spec_digest

    baseline = json.loads(Path(baseline_path).read_text())
    service = baseline.get("service")
    if not service:
        return [f"{baseline_path}: no 'service' section in baseline"]
    failures: List[str] = []

    expected_digest = service.get("ledger_digest")
    expected_spec = service.get("spec_digest")
    bench_spec = spec_digest(bench.get("spec", {}))
    if expected_digest:
        if expected_spec and expected_spec != bench_spec:
            pass  # different spec: the committed digest does not apply
        elif bench["determinism"]["ledger_digest"] != expected_digest:
            failures.append(
                f"ledger digest {bench['determinism']['ledger_digest']} "
                f"!= committed {expected_digest} (determinism regression)"
            )

    floor_ops = service.get("min_ops_per_second")
    if floor_ops:
        best = bench["scaling"]["best_ops_s"]
        floor = floor_ops * (1.0 - SERVICE_CHECK_TOLERANCE)
        if best < floor:
            failures.append(
                f"service throughput {best:.0f} ops/s is more than "
                f"{SERVICE_CHECK_TOLERANCE:.0%} below the committed "
                f"{floor_ops:.0f} ops/s (floor {floor:.0f})"
            )

    min_speedup = service.get("min_speedup")
    needed_cpus = service.get("min_speedup_cpus", 4)
    cpus = bench.get("cpu_count") or 1
    if min_speedup and cpus >= needed_cpus:
        speedup = bench["scaling"]["speedup"]
        if speedup < min_speedup:
            failures.append(
                f"scaling {speedup:.2f}x at "
                f"{bench['scaling']['best_shards']} shards is below the "
                f"committed {min_speedup:.2f}x floor ({cpus} CPUs)"
            )

    max_p99 = service.get("max_p99_us")
    if max_p99:
        p99 = bench["scaling"].get("best_p99_us")
        if p99 is None:
            best = str(bench["scaling"]["best_shards"])
            p99 = bench["runs"][best]["latency_us"]["p99"]
        if p99 > max_p99:
            failures.append(
                f"p99 latency {p99} us exceeds the committed ceiling "
                f"{max_p99} us"
            )
    return failures


def run_harness(
    out_dir: Path,
    quick: bool = False,
    check: Optional[Path] = None,
    skip_sim: bool = False,
    profile: Optional[int] = None,
    profile_out: Optional[Path] = None,
    echo: Callable[[str], None] = print,
) -> int:
    """Run the full harness; returns a process exit code."""
    if not out_dir.is_dir():
        echo(f"error: output directory not found: {out_dir}")
        return 2
    echo(vectorized.capability())
    pages_per_kind, reps = (6, 3) if quick else (16, 5)
    echo(f"compression kernels: {pages_per_kind} pages/kind, "
         f"best of {reps} reps ...")
    compression = bench_compression(pages_per_kind, reps)
    for name, agg in compression["aggregate"].items():
        echo(f"  {name}: {agg['new_mb_s']:.2f} MB/s "
             f"(seed {agg['seed_mb_s']:.2f} MB/s, "
             f"{agg['speedup']:.2f}x; per-kind mean "
             f"{agg['mean_kind_speedup']:.2f}x)")
    compression["kernels"] = vectorized.capability()
    compression["fast"] = bench_fast_kernels(pages_per_kind, reps)
    if compression["fast"] is not None:
        echo("vectorized kernels (fast vs scalar, same process) ...")
        for name, agg in compression["fast"]["aggregate"].items():
            echo(f"  {name}: {agg['fast_mb_s']:.2f} MB/s "
                 f"(scalar {agg['scalar_mb_s']:.2f} MB/s, "
                 f"{agg['speedup']:.2f}x)")
    echo("hot-structure micro-benchmarks ...")
    micro = bench_micro(reps=3 if quick else 5)
    compression["micro"] = micro
    for key, value in micro.items():
        if key.endswith("_ops_s"):
            echo(f"  {key[:-6]}: {value:,.0f} ops/s")
    comp_path = out_dir / "BENCH_compression.json"
    comp_path.write_text(json.dumps(compression, indent=2) + "\n")
    echo(f"wrote {comp_path}")

    scale = 0.05 if quick else 0.12
    sim = None
    sim_scalar = None
    if not skip_sim:
        echo(f"simulation throughput at scale {scale}, best of 3 reps ...")
        sim = bench_sim(scale=scale)
        for name, row in sim["workloads"].items():
            lat = row["latency_us"]
            echo(f"  {name}: {row['pages_per_second']:.0f} pages/s "
                 f"(p50 {lat['p50']} us, p95 {lat['p95']} us, "
                 f"p99 {lat['p99']} us; {row['references']} refs, "
                 f"sampler memo {row['sampler_hit_rate']:.0%})")
        echo(f"  aggregate ({sim['mode']}): "
             f"{sim['aggregate']['pages_per_second']:,.0f} refs/s over "
             f"{sim['aggregate']['references']} references")
        if sim["mode"] == "fast":
            echo("simulation throughput, scalar kernels (fast=False) ...")
            sim_scalar = bench_sim(scale=scale, fast=False)
            echo(f"  aggregate (scalar): "
                 f"{sim_scalar['aggregate']['pages_per_second']:,.0f} "
                 f"refs/s")
            sim["scalar"] = sim_scalar
        else:
            # No numpy: the primary run already used scalar kernels, so
            # the scalar floors apply to it directly.
            sim_scalar = sim
        echo("streamed binary-trace replay (mmap reader, child process "
             "RSS) ...")
        replay_refs = 200_000 if quick else 10_000_000
        try:
            replay = bench_stream_replay(references=replay_refs)
        except RuntimeError as exc:
            echo(f"  stream replay failed: {exc}")
            replay = None
        if replay is not None:
            sim["stream_replay"] = replay
            rss = ("unknown" if replay["peak_rss_mb"] is None
                   else f"{replay['peak_rss_mb']:.0f} MB")
            echo(f"  {replay['references']:,} refs "
                 f"({replay['trace_bytes'] / 1e6:.0f} MB trace): "
                 f"{replay['references_per_second']:,.0f} refs/s, "
                 f"peak RSS {rss}")
        echo("fault-layer overhead (disabled vs committed floors, "
             "plus inert-plan A/B) ...")
        baseline_path = check if check is not None else Path(
            "benchmarks/perf_baseline.json"
        )
        overhead = bench_fault_overhead(
            scale=0.05, reps=5 if quick else 8,
            baseline_path=baseline_path,
        )
        sim["fault_layer"] = overhead
        echo("adaptive-selector overhead (adaptive vs lzrw1, same "
             "process) ...")
        selector = bench_adaptive(scale=0.05, reps=5 if quick else 8)
        sim["adaptive_selector"] = selector
        echo(f"  adaptive: "
             f"{selector['adaptive_pages_per_second']:,.0f} pages/s vs "
             f"lzrw1 {selector['single_pages_per_second']:,.0f} pages/s "
             f"({selector['overhead_percent']:.1f}% overhead; "
             f"target < 10%)")
        vs_baseline = overhead["vs_baseline_percent"]
        if vs_baseline is not None:
            echo(f"  fault-layer overhead when disabled: "
                 f"{vs_baseline:.1f}% vs {baseline_path} thrasher floor "
                 f"(target < 2%); enabled-but-inert A/B bound: "
                 f"{overhead['inert_ab_percent']:.1f}%")
        else:
            echo(f"  fault-layer overhead when disabled: <= "
                 f"{overhead['inert_ab_percent']:.1f}% (inert-plan A/B "
                 f"bound; no matching-scale floor in {baseline_path})")
        echo("control-plane overhead (disabled vs enabled, same "
             "process) ...")
        control = bench_control(
            scale=0.05, reps=5 if quick else 8,
            baseline_path=baseline_path,
        )
        sim["control"] = control
        control_vs = control["vs_baseline_percent"]
        if control_vs is not None:
            echo(f"  control-plane overhead when disabled: "
                 f"{control_vs:.1f}% vs {baseline_path} thrasher floor "
                 f"(target < 2%); enabled A/B bound: "
                 f"{control['enabled_ab_percent']:.1f}%")
        else:
            echo(f"  control-plane overhead when disabled: <= "
                 f"{control['enabled_ab_percent']:.1f}% (enabled A/B "
                 f"bound; no matching-scale floor in {baseline_path})")
        sim_path = out_dir / "BENCH_sim.json"
        sim_path.write_text(json.dumps(sim, indent=2) + "\n")
        echo(f"wrote {sim_path}")

    if profile is not None:
        echo(f"profiling simulator at scale {scale} "
             f"(top {profile} functions) ...")
        report = profile_sim(scale=scale, top_n=profile)
        prof_path = (profile_out if profile_out is not None
                     else out_dir / "BENCH_profile.txt")
        if prof_path.parent and not prof_path.parent.exists():
            prof_path.parent.mkdir(parents=True, exist_ok=True)
        prof_path.write_text(report)
        for line in report.splitlines():
            if line.startswith("  repro."):
                echo(line)
        echo(f"wrote {prof_path}")

    if check is not None:
        if not check.is_file():
            echo(f"error: baseline file not found: {check}")
            return 2
        failures = check_against_baseline(compression, check, sim=sim,
                                          sim_scalar=sim_scalar)
        if failures:
            for failure in failures:
                echo(f"REGRESSION: {failure}")
            return 1
        echo(f"measurements within tolerance of baseline {check}: ok")
    return 0
