"""Performance harness: one timing primitive, one gate table.

The repo's simulated results never depend on host wall-clock, but the
*cost of running the reproduction* does.  This module measures it:

* **kernel throughput** — MB/s of each kernel's fast path (the
  compiled kernel library) next to the scalar path ``fast=False``
  runs.  Both sides of a pair run interleaved in the
  same process on the same pages, so their ratio ("speedup") is largely
  machine-independent, which is what CI regression checks compare.
* **end-to-end simulation rate** — pages of reference stream processed
  per second of host time for each named workload, with the full stack
  (VM, pager, compression cache, sampler) engaged.
* **same-process overheads** — what an optional subsystem costs against
  the machine without it (:data:`OVERHEADS`).
* **page generation** — ms per page of each :mod:`~.workloads.contentgen`
  generator with its memo emptied: what every run pays before its first
  reference.
* **import footprint** — the peak resident set of a fresh interpreter
  that imports only what one process kind needs (:data:`IMPORT_SETS`).

Every in-process wall-clock figure is taken by :func:`ab_compare`.
Results are written as ``BENCH_compression.json`` and ``BENCH_sim.json``
at the repository root; :data:`GATES` is the single list of what
``--check`` (and therefore CI) enforces against the thresholds
committed in ``benchmarks/perf_baseline.json``.
"""

from __future__ import annotations

import json
import random
import re
import time
from functools import partial
from pathlib import Path
from statistics import median
from typing import (
    Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple,
)

from .compression import create
from .compression.compiled import compiled_library
from .compression.sampler import clear_shared_results
from .control.controller import ControlConfig
from .experiments import build_cell
from .faults.plan import FaultPlan
from .mem.page import DEFAULT_PAGE_SIZE, mbytes
from .sim.engine import SimulationEngine
from .tiers.spec import two_tier_specs
from .workloads import btrace, catalog, contentgen

_perf_counter = time.perf_counter

#: An :func:`ab_compare` arm: called *untimed* to set one sample up
#: (build machines, reference lists), it returns the body that is timed.
Arm = Callable[[], Callable[[], object]]


class Comparison(NamedTuple):
    """What :func:`ab_compare` measured."""

    best: Dict[str, float]    # min-of-rounds seconds per arm
    ratio: Dict[str, float]   # best[arm] / best[first arm]; < 1 is faster
    band: float               # relative noise band of these samples
    values: Dict[str, object]  # each arm's last body() return value

    def verdict(self, arm: str) -> str:
        """``unresolved`` inside the band, else the signed change."""
        delta = self.ratio[arm] - 1.0
        if abs(delta) <= self.band:
            return "unresolved"
        return f"{delta * 100.0:+.1f}%"


def ab_compare(arms: Mapping[str, Arm], reps: int,
               clock: Callable[[], float] = _perf_counter) -> Comparison:
    """Time ``arms`` against each other: the module's one timing loop.

    One warm-up of every arm, its time discarded (the first arm to run
    would otherwise pay for the process-wide kernel-result cache, lazy
    imports and allocator growth), then ``reps`` rounds that sample every arm
    once, in an order that alternates per round (A B / B A) so slow
    drift — thermal, a neighbour's load — lands on both arms instead of
    biasing one.  Each arm reports the minimum over its rounds: host
    scheduling can only slow a run down, never speed it up.

    ``band`` is the noise the same samples show: how far an arm's
    *median* round sits above its fastest, relative to the fastest,
    taken from the noisiest arm.  If a typical round is within x% of the
    best one, a repeat run's best is too, so x bounds how far two
    minima can differ without the arms differing.  A ratio closer to 1
    than the band is not a measurement of anything —
    :meth:`Comparison.verdict` calls it ``unresolved`` — and nothing
    here clamps a negative difference to zero.  One round cannot show
    its own noise, so ``reps`` below two is an error.
    """
    if reps < 2:
        raise ValueError(f"ab_compare needs at least two rounds: {reps}")
    names = list(arms)
    values: Dict[str, object] = {}

    def sample(name: str) -> float:
        body = arms[name]()
        start = clock()
        values[name] = body()
        return clock() - start

    for name in names:
        sample(name)
    rounds: Dict[str, List[float]] = {name: [] for name in names}
    for rep in range(reps):
        for name in (names if rep % 2 == 0 else names[::-1]):
            rounds[name].append(sample(name))
    best = {name: min(walls) for name, walls in rounds.items()}
    band = max(median(rounds[name]) / best[name] - 1.0 for name in names)
    ratio = {name: best[name] / best[names[0]] for name in names}
    return Comparison(best, ratio, band, values)


def _generators() -> Dict[str, Callable[..., bytes]]:
    """contentgen's page generators by content kind, each callable as
    ``make(page_number, page_size=...)``."""
    dictionary = contentgen.make_dictionary()
    return {
        "tiled": contentgen.repeating_pattern,
        "dp": contentgen.dp_band_values,
        "random": contentgen.incompressible,
        "index": contentgen.index_page,
        "ctab": contentgen.cache_table_page,
        "text": partial(contentgen.text_page_random, dictionary=dictionary),
        "textc": partial(contentgen.text_page_clustered,
                         dictionary=dictionary),
    }


def _corpus_kinds(pages_per_kind: int,
                  page_size: int = DEFAULT_PAGE_SIZE
                  ) -> Dict[str, List[bytes]]:
    """Representative pages per content kind (see contentgen docstrings)."""
    generators = dict(_generators(),
                      zeros=lambda i, page_size: bytes(page_size))
    return {kind: [make(i, page_size=page_size)
                   for i in range(pages_per_kind)]
            for kind, make in generators.items()}


def _batch_arm(compress: Callable[[bytes], object],
               pages: Sequence[bytes]) -> Arm:
    """An arm whose body compresses every page once (no set-up)."""
    def body() -> None:
        for page in pages:
            compress(page)
    return lambda: body


def _bench_pairs(pairs: Mapping[str, Tuple[object, object]],
                 pages_per_kind: int, reps: int) -> Dict:
    """Throughput of two implementations of each kernel, side by side.

    ``pairs`` maps a kernel name to ``(fast, scalar)`` compressors that
    produce identical bytes.  Returns per-kind and aggregate MB/s for
    both plus ``speedup`` (scalar time over fast time).  Each (kind,
    kernel) cell is one :func:`ab_compare`, so the two sides are timed
    interleaved on the same pages.
    """
    new, old = "fast", "scalar"
    result: Dict = {
        "page_size": DEFAULT_PAGE_SIZE,
        "pages_per_kind": pages_per_kind,
        "reps": reps,
        "kinds": {},
        "aggregate": {},
    }
    totals = {name: {new: 0.0, old: 0.0} for name in pairs}
    total_bytes = 0
    for kind, pages in _corpus_kinds(pages_per_kind).items():
        nbytes = sum(len(p) for p in pages)
        total_bytes += nbytes
        row: Dict = {}
        for name, (variant, base) in pairs.items():
            cmp = ab_compare({new: _batch_arm(variant.compress, pages),
                              old: _batch_arm(base.compress, pages)}, reps)
            for label in (new, old):
                totals[name][label] += cmp.best[label]
            row[name] = {
                f"{new}_mb_s": round(nbytes / cmp.best[new] / 1e6, 3),
                f"{old}_mb_s": round(nbytes / cmp.best[old] / 1e6, 3),
                "speedup": round(cmp.ratio[old], 3),
            }
        result["kinds"][kind] = row
    for name, total in totals.items():
        kind_speedups = [row[name]["speedup"]
                         for row in result["kinds"].values()]
        result["aggregate"][name] = {
            f"{new}_mb_s": round(total_bytes / total[new] / 1e6, 3),
            f"{old}_mb_s": round(total_bytes / total[old] / 1e6, 3),
            # total-time ratio: time-weighted, dominated by slow kinds
            "speedup": round(total[old] / total[new], 3),
            # unweighted mean of the per-kind ratios
            "mean_kind_speedup": round(
                sum(kind_speedups) / len(kind_speedups), 3
            ),
        }
    return result


#: Kernels with a ``fast`` variant, each the compiled kernel library's
#: (where that does not load, both sides run the Python path ``fast=False``
#: runs), and so is every committed fast ratio.
FAST_KERNELS = (
    "rle", "wk", "varint-delta", "lzrw1", "lzss", "fpc", "bdi", "cpack",
)


def _lz_library() -> str:
    """What the compiled kernels run here: ``compiled`` or ``python``."""
    return "compiled" if compiled_library() is not None else "python"


def bench_compression(pages_per_kind: int = 16, reps: int = 5) -> Dict:
    """Kernel throughput: the dict that becomes ``BENCH_compression.json``.

    Under ``fast``, every ``fast=``-capable kernel's fast path next to
    its scalar one: the compiled library, when it loads (``lz_library``
    names it), against the Python loop ``fast=False`` runs (the seed's
    encoder for lzrw1 and lzss).  Both sides of each pair are pinned
    bit-identical by the test suite, so a ratio measures the same work
    done two ways and is machine-independent.
    """
    return {
        "lz_library": _lz_library(),
        "fast": _bench_pairs(
            {name: (create(name), create(name, fast=False))
             for name in FAST_KERNELS},
            pages_per_kind, reps,
        ),
    }


def bench_contentgen(pages: int = 32, reps: int = 5) -> Dict:
    """What generating a page costs: ``BENCH_sim.json``'s ``contentgen``.

    One :func:`ab_compare` over the generators, every arm's untimed
    set-up emptying the memos so that each of its ``pages`` pages is
    generated, none recalled.  ``pages_per_second`` — all generators'
    pages over their summed best times — is the figure the gate holds.
    ``bulk_draw`` times the two paths of contentgen's bulk draw on the
    outputs one page of byte draws consumes (half of the 9-bit draws
    fall below 256); ``numpy_ms`` is ``None`` without numpy.
    """
    def generate(make: Callable[..., bytes]) -> Arm:
        def prepare() -> Callable[[], object]:
            contentgen.clear_caches()
            return lambda: [make(number) for number in range(pages)]
        return prepare

    generators = _generators()
    cmp = ab_compare({kind: generate(make)
                      for kind, make in generators.items()}, reps)

    outputs = 2 * DEFAULT_PAGE_SIZE
    paths = {"python": contentgen._accepted_python}
    if contentgen._np is not None:
        paths["numpy"] = contentgen._accepted_numpy
    draw = ab_compare({
        name: (lambda accepted=accepted: lambda: [
            accepted(random.Random(number), 256, outputs)
            for number in range(pages)
        ]) for name, accepted in paths.items()
    }, reps)
    draw_ms = {name: round(draw.best[name] / pages * 1e3, 4)
               for name in paths}
    return {
        "page_size": DEFAULT_PAGE_SIZE,
        "pages": pages,
        "reps": reps,
        "ms_per_page": {kind: round(cmp.best[kind] / pages * 1e3, 4)
                        for kind in generators},
        "noise_band": round(cmp.band, 4),
        "pages_per_second": round(
            len(generators) * pages / sum(cmp.best.values()), 1
        ),
        "bulk_draw": {
            "outputs": outputs,
            "python_ms": draw_ms["python"],
            "numpy_ms": draw_ms.get("numpy"),
            "noise_band": round(draw.band, 4),
        },
    }


def _logstore_churn_ops(count: int = 8000, keys: int = 1500,
                        seed: int = 20) -> List[Tuple[str, tuple]]:
    """``(verb, arguments)`` for :func:`bench_micro`'s log-store body:
    four operations in five go to a fifth of the keys; 55% puts of
    400-2600 bytes, 35% gets, 10% frees (a put where the page is not
    live)."""
    from .mem.page import PageId

    rng = random.Random(seed)
    payloads = [rng.randbytes(rng.randint(400, 2600)) for _ in range(64)]
    live: set = set()
    ops: List[Tuple[str, tuple]] = []
    for _ in range(count):
        hot = rng.random() < 0.8
        page = PageId(1, rng.randrange(keys // 5 if hot else keys))
        draw = rng.random()
        if draw < 0.55 or page not in live:
            live.add(page)
            ops.append(("put", (page, rng.choice(payloads))))
        elif draw < 0.90:
            ops.append(("get", (page,)))
        else:
            live.discard(page)
            ops.append(("free", (page,)))
    return ops


def _run_logstore_churn(ops: Sequence[Tuple[str, tuple]]):
    """Drive a fresh 128-segment log store through ``ops``, with
    ``maybe_collect`` every 64 operations; returns the store."""
    from .storage.disk import DiskModel
    from .storage.logstore import LogStoreConfig, LogStructuredStore

    store = LogStructuredStore(DiskModel.rz57(),
                               config=LogStoreConfig(total_segments=128))
    for index, (verb, arguments) in enumerate(ops, 1):
        getattr(store, verb)(*arguments)
        if index % 64 == 0:
            store.maybe_collect()
    return store


def bench_micro(reps: int = 5) -> Dict:
    """Ops/s micro-benchmarks for the hot data structures.

    Three structures dominate the simulator's per-reference path: the
    resident-set :class:`~repro.mem.lru.LruList`, the
    :class:`FragmentStore` fragment map, and the
    :class:`CompressionSampler` memo.  The fourth body is the durable
    tier's steady state: a :class:`LogStructuredStore` churning on a log
    short enough (4 MBytes, about 45% live) that cleaning passes and
    their checkpoints cycle a hundred times.  Each is timed doing the
    operation mix its callers actually issue; figures are ops/s
    (host-absolute — track the trajectory, don't compare across hosts).
    """
    from .compression.sampler import CompressionSampler
    from .mem.lru import LruList
    from .mem.page import PageId
    from .storage.blockfs import BlockFileSystem
    from .storage.disk import DiskModel
    from .storage.fragstore import FragmentStore

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

    churn = _logstore_churn_ops()

    def logstore_churn() -> int:
        _run_logstore_churn(churn)
        return len(churn)

    bodies = (lru_touch_evict, fragstore_put_get_gc, sampler_hit_miss,
              logstore_churn)
    cmp = ab_compare({fn.__name__: (lambda fn=fn: fn) for fn in bodies},
                     reps)
    return {"reps": reps,
            **{f"{name}_ops_s": round(ops / cmp.best[name], 1)
               for name, ops in cmp.values.items()}}


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


def _build(name: str, scale: float, **config):
    """A fresh ``(engine, reference list)`` for one named workload on
    ~6 MBytes of user memory; ``config`` replaces machine fields."""
    machine, workload = build_cell({
        "config": {"memory_bytes": mbytes(6 * scale)},
        "workload": catalog.spec(name, scale),
    }, **config)
    return SimulationEngine(machine), list(workload.references())


def _sim_arm(names: Sequence[str], scale: float, runs: int = 1,
             cold: bool = False, **config) -> Arm:
    """An arm running ``runs`` fresh machines per named workload.

    Machines and reference lists are built in the untimed set-up, so the
    timed body is :meth:`SimulationEngine.run` alone; it returns the last
    ``RunResult`` and the number of references processed.  A ``cold``
    arm's set-up ends by emptying the process-wide kernel caches, as the
    end-to-end ``sim-cold`` workload does before each run.
    """
    def prepare() -> Callable[[], object]:
        prepared = [_build(name, scale, **config)
                    for _ in range(runs) for name in names]
        references = sum(len(refs) for _, refs in prepared)
        if cold:
            clear_shared_results()

        def body():
            run = None
            for engine, refs in prepared:
                run = engine.run(iter(refs))
            return run, references
        return body
    return prepare


def bench_sim(scale: float = 0.12,
              workloads: Optional[Sequence[str]] = None,
              reps: int = 3,
              fast: Optional[bool] = None) -> Dict:
    """End-to-end reference-stream throughput per named workload.

    Each workload is one :func:`ab_compare` arm — every round on a
    freshly built machine, fastest wall reported, with the round-to-round
    ``noise_band`` beside it.  The figure of merit is host-side pages
    (references) per second, the rate the whole reproduction pipeline
    sustains.  Simulated results are deterministic, so every rep produces
    the identical RunResult; only wall time varies.

    One additional *timed* rep per workload wraps the reference stream in
    :class:`_TimedReferences` to collect per-reference latency
    percentiles (p50/p95/p99) — the tail tells a different story than
    the mean: compression-heavy faults are orders of magnitude slower
    than resident hits, and only the percentiles expose that mix.

    Every round after the warm-up replays the kernel results the process
    already holds, so those figures leave the kernels out.  A second arm
    per workload empties the kernel caches before each round
    (``cold_wall_seconds``; the ``cold`` aggregate): the figure a kernel
    change moves.
    """
    from .service.latency import LatencyRecorder

    mode = ("fast" if fast is not False and compiled_library() is not None
            else "scalar")
    names = list(workloads) if workloads else sorted(catalog.CATALOG)
    result: Dict = {"scale": scale, "reps": reps, "mode": mode,
                    "lz_library": _lz_library(), "workloads": {}}
    total_refs = 0
    total_wall = 0.0
    total_cold = 0.0
    for name in names:
        cmp = ab_compare({name: _sim_arm([name], scale, fast=fast)}, reps)
        run, references = cmp.values[name]
        best_wall = cmp.best[name]
        cold = ab_compare(
            {name: _sim_arm([name], scale, cold=True, fast=fast)}, reps)
        total_cold += cold.best[name]
        # Dedicated timed rep: the wrapper adds a clock read per
        # reference, so it never contributes to the best-of wall times.
        recorder = LatencyRecorder()
        engine, refs = _build(name, scale, fast=fast)
        engine.run(_TimedReferences(refs, recorder))
        total_refs += references
        total_wall += best_wall
        result["workloads"][name] = {
            "references": references,
            "wall_seconds": round(best_wall, 4),
            "noise_band": round(cmp.band, 4),
            "pages_per_second": round(references / best_wall, 1),
            "cold_wall_seconds": round(cold.best[name], 4),
            "cold_noise_band": round(cold.band, 4),
            "latency_us": recorder.snapshot(percentiles=(50.0, 95.0, 99.0)),
            "sampler_hit_rate": round(run.sampler_hit_rate, 4),
            "simulated_seconds": round(run.elapsed_seconds, 3),
        }
    # Sum of per-workload best walls: the noise-robust aggregate (each
    # term is its workload's minimum), the single refs/s figure the
    # baseline tracks across optimization PRs.
    for key, wall in (("aggregate", total_wall), ("cold", total_cold)):
        result[key] = {
            "references": total_refs,
            "wall_seconds": round(wall, 4),
            "pages_per_second": round(total_refs / wall, 1) if wall else 0.0,
        }
    return result


def bench_stream_replay(references: int = 10_000_000,
                        scale: float = 0.05) -> Dict:
    """Replay a long binary multiprogram trace in a fresh subprocess.

    Records the multiprogram workload once, repeats the packed block to
    reach ``references`` events, then replays it through ``trace-replay``
    (mmap streaming reader + engine batch dispatch) in a child process —
    a child so the peak it reports (its own ``VmHWM``, which unlike
    ``ru_maxrss`` does not start at this process's size) measures the
    replay alone.  The point of the peak-RSS figure: it stays near the
    mapped trace size instead of the gigabytes that 10M+ per-reference
    python objects would cost.
    """
    import os
    import subprocess
    import sys
    import tempfile

    one_pass = list(catalog.build("multiprogram", scale).references())
    repeat = max(1, -(-references // len(one_pass)))
    with tempfile.TemporaryDirectory(prefix="repro-btrace-") as tmp:
        path = os.path.join(tmp, "multiprogram.btrace")
        total, _, _ = btrace.dump_repeated(path, one_pass, repeat)
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


#: What :func:`bench_import_footprint` imports, per process kind:
#: ``logstore`` is the ``lfs-churn`` benchmark's store, ``kv_front_end``
#: the ``repro`` imports of the ``kv-mixed`` front end
#: (benchmarks/e2e/kv_workload.py), which its shard workers inherit.
IMPORT_SETS: Dict[str, Tuple[str, ...]] = {
    "logstore": ("repro.storage.logstore",),
    "kv_front_end": (
        "repro.compression.sampler", "repro.service.config",
        "repro.service.errors", "repro.service.protocol",
        "repro.service.server", "repro.service.store",
        "repro.workloads.contentgen", "repro.workloads.traffic",
    ),
}

_FOOTPRINT_CHILD = """
import json, os, sys
{imports}
peak_kb = None
if os.path.exists("/proc/self/status"):
    status = dict(line.split(":", 1) for line in open("/proc/self/status"))
    peak_kb = int(status["VmHWM"].split()[0])
print(json.dumps([peak_kb,
                  sum(name.startswith("repro") for name in sys.modules),
                  "numpy" in sys.modules]))
"""


def bench_import_footprint(reps: int = 3) -> Dict:
    """Each :data:`IMPORT_SETS` row's fresh-interpreter ``VmHWM``.

    A child interpreter imports the row's modules and nothing else, then
    reads its own peak resident set; the figure is the least of ``reps``
    children (they spread about 0.1 MB).  ``peak_rss_mb`` is ``None``
    where there is no ``/proc``.

    Raises:
        RuntimeError: if a child cannot import its modules.
    """
    import os
    import subprocess
    import sys

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    result: Dict = {}
    for name, modules in IMPORT_SETS.items():
        code = _FOOTPRINT_CHILD.format(
            imports="\n".join(f"import {module}" for module in modules))
        peaks = []
        for _ in range(reps):
            proc = subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, text=True)
            if proc.returncode != 0:
                raise RuntimeError(
                    f"importing {name} failed (exit {proc.returncode}): "
                    f"{proc.stderr.strip()}")
            peak_kb, repro_modules, numpy_loaded = json.loads(proc.stdout)
            peaks.append(peak_kb)
        result[name] = {
            "modules": list(modules),
            "peak_rss_mb": (None if peak_kb is None
                            else round(min(peaks) / 1024, 1)),
            "repro_modules": repro_modules,
            "numpy_loaded": numpy_loaded,
        }
    return result


#: The same-process overhead comparisons: name, baseline
#: ``MachineConfig`` fields, variant fields, workloads.  The variant is
#: always a superset of the baseline's work (selector trials and memo
#: probes on top of lzrw1; injector probes, degradation bookkeeping and
#: resilience counting that engage but never fire, over the retry
#: wrapper both arms share; hotness tracking,
#: telemetry and the evaluation tick; a capped L1 demoting into a second
#: compressed tier), so each row bounds what turning the subsystem on
#: costs.  Nothing here measures a *disabled* subsystem
#: against the code before it existed — there is no such code to run in
#: this process; the end-to-end benchmark's parent/change pairs on
#: ``sim-warm``/``sim-cold`` are what catch a slower default path.
OVERHEADS: Tuple[Tuple[str, Dict, Dict, Tuple[str, ...]], ...] = (
    ("selector", {"compressor": "lzrw1"}, {"compressor": "adaptive"},
     ("thrasher", "compare")),
    ("inert_fault_plan", {}, {"fault_plan": FaultPlan.from_dict({})},
     ("thrasher",)),
    ("control_enabled", {}, {"control": ControlConfig()}, ("thrasher",)),
    ("two_tier", {}, {"tiers": two_tier_specs()}, ("thrasher", "compare")),
)

#: One simulated run is ~20 ms — far too short for a stable A/B — so
#: each timing sample batches this many fresh runs of every workload.
_RUNS_PER_SAMPLE = 5


def bench_overhead(scale: float = 0.05, reps: int = 8) -> Dict:
    """Measure every :data:`OVERHEADS` row; one payload entry per row.

    ``overhead_percent`` is signed (a variant that measures faster reads
    negative), ``band_percent`` is :func:`ab_compare`'s noise band, and
    ``lower_bound_percent`` — overhead minus band, what the overhead is
    *at least* — is the figure the gate holds under its ceiling.  The
    shared kernel-result cache is emptied first so every row starts from
    the same state and the warm-up round fills it for both arms.
    """
    result: Dict = {}
    for name, base, variant, workloads in OVERHEADS:
        clear_shared_results()
        cmp = ab_compare({
            "baseline": _sim_arm(workloads, scale, _RUNS_PER_SAMPLE,
                                 **base),
            "variant": _sim_arm(workloads, scale, _RUNS_PER_SAMPLE,
                                **variant),
        }, reps)
        overhead = (cmp.ratio["variant"] - 1.0) * 100.0
        band = cmp.band * 100.0
        result[name] = {
            "workloads": list(workloads),
            "varies": sorted(variant),
            "scale": scale,
            "reps": reps,
            "baseline_wall_seconds": round(cmp.best["baseline"], 4),
            "variant_wall_seconds": round(cmp.best["variant"], 4),
            "overhead_percent": round(overhead, 2),
            "band_percent": round(band, 2),
            "lower_bound_percent": round(overhead - band, 2),
            "verdict": cmp.verdict("variant"),
        }
    return result


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

    names = list(workloads) if workloads else sorted(catalog.CATALOG)
    runs = [_build(name, scale) for name in names]

    profiler = cProfile.Profile()
    profiler.enable()
    for engine, refs in runs:
        engine.run(iter(refs))
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


#: Fraction of a committed kernel speedup ratio a measurement must keep:
#: ratios are stable across machines, but not to the last percent.
CHECK_TOLERANCE = 0.8

#: Maximum tolerated drop below a committed host-absolute floor
#: (simulator pages/s, service ops/s).  The committed values are
#: themselves conservative (see perf_baseline.json), so this catches
#: algorithmic regressions, not host variance.
SIM_CHECK_TOLERANCE = 0.30

_MISSING = object()


def _lookup(tree, path: str):
    """Follow a dotted ``path`` into nested dicts.

    A ``{inner.path}`` segment is first replaced by the value found at
    ``inner.path`` (the service p99 lives under the run keyed by the
    best shard count).  Absent keys and ``None`` both read as missing.
    """
    path = re.sub(r"\{([^}]*)\}",
                  lambda match: str(_lookup(tree, match.group(1))), path)
    for key in path.split("."):
        tree = tree.get(key) if isinstance(tree, dict) else None
        if tree is None:
            return _MISSING
    return tree


def _compiled_lz(key: str, payload: Dict) -> Optional[str]:
    # two_tier times demotions that all decode: in Python, the fallback.
    library = payload.get("lz_library")
    if (key in FAST_KERNELS and library != "compiled"
            or key == "two_tier" and library == "python"):
        return "the compiled kernel library did not load: the Python paths ran"
    return None


def _at_scale(payload: Dict, baseline: Dict) -> Optional[str]:
    # Throughput varies with workload scale; floors only make sense at
    # the scale they were recorded at.
    expected = baseline.get("sim_scale")
    if expected is None or payload.get("scale") == expected:
        return None
    return (f"measured at scale {payload.get('scale')}, floors recorded "
            f"at {expected}")


def _scalar_at_scale(payload: Dict, baseline: Dict) -> Optional[str]:
    if "scalar" not in payload:
        # No compiled library: the primary sweep already ran the scalar
        # kernels and the sim-floor rows hold it.
        return "no separate forced-scalar sweep in this run"
    return _at_scale(payload["scalar"], baseline)


def _same_spec(payload: Dict, baseline: Dict) -> Optional[str]:
    from .sweep import spec_digest

    expected = baseline["service"].get("spec_digest")
    if not expected or spec_digest(payload.get("spec", {})) == expected:
        return None
    return "bench ran a different spec than the committed digest's"


def _enough_cpus(payload: Dict, baseline: Dict) -> Optional[str]:
    # Shard processes cannot run in parallel on fewer cores, so the
    # check would measure the machine, not the code.
    needed = baseline["service"].get("min_speedup_cpus", 4)
    cpus = payload.get("cpu_count") or 1
    return (None if cpus >= needed else
            f"{cpus} CPU(s) visible, the scaling floor needs {needed}")


def _footprint_measured(payload: Dict, baseline: Dict) -> Optional[str]:
    rows = payload.get("import_footprint", {}).values()
    if any(row["peak_rss_mb"] is None for row in rows):
        return "no /proc on this host: no child read its VmHWM"
    return None


def _shard_memory_measured(payload: Dict, baseline: Dict) -> Optional[str]:
    # A shard's memory follows its slot count, compressor and traffic.
    reason = _same_spec(payload, baseline)
    if reason:
        return reason
    run = payload.get("runs", {}).get("1")
    if run is None:
        return "no 1-shard run in this bench"
    if run.get("shard_peak_rss_growth_mb") is None:
        return "no /proc on this host: the shard's memory was not read"
    return None


def _adversarial_measured(payload: Dict, baseline: Dict) -> Optional[str]:
    # The ceilings are worked out for one stream length.
    section = payload.get("adversarial", {})
    pages = baseline["service"].get("adversarial_pages")
    if pages is not None and section.get("pages") != pages:
        return (f"stream of {section.get('pages')} pages, ceilings "
                f"recorded for {pages}")
    if any(run.get("shard_peak_rss_growth_mb") is None
           for run in section.get("runs", {}).values()):
        return "no /proc on this host: the shard's memory was not read"
    return None


class Gate(NamedTuple):
    """One row of what ``--check`` enforces.

    ``measured`` is a dotted path into the named ``BENCH_*.json``
    payload and ``threshold`` one into ``perf_baseline.json``.  When the
    threshold is a dict the row is one check per key, with the key
    substituted for ``*`` in ``measured``.  The committed value is
    scaled by ``tolerance`` before ``compare`` (``>=``, ``<=`` or
    ``==``) is applied; ``applies`` returns why the row cannot be judged
    on this host/run, or ``None`` when it can, and ``applies_to_key``
    the same for one key of a dict threshold.
    """

    name: str
    payload: str
    measured: str
    compare: str
    threshold: str
    tolerance: float = 1.0
    applies: Optional[Callable[[Dict, Dict], Optional[str]]] = None
    applies_to_key: Optional[Callable[[str, Dict], Optional[str]]] = None

    def judge(self, got, committed) -> Optional[str]:
        """Why ``got`` fails against ``committed``; ``None`` if it holds."""
        if got is _MISSING:
            return "in the baseline but not measured"
        if self.compare == "==":
            return None if got == committed else (
                f"{got} != committed {committed}"
            )
        limit = committed * self.tolerance
        held = got >= limit if self.compare == ">=" else got <= limit
        if held:
            return None
        scaled = "" if self.tolerance == 1.0 else f"{self.tolerance:.0%} of "
        return (f"measured {got:g} must be {self.compare} {limit:g} "
                f"({scaled}the committed {committed:g})")


_FLOOR = 1.0 - SIM_CHECK_TOLERANCE

#: Everything CI enforces on a measurement, in one place.  The ``sim``
#: payload is ``BENCH_sim.json``, ``compression`` is
#: ``BENCH_compression.json``, ``service`` is ``BENCH_service.json``.
GATES: Tuple[Gate, ...] = (
    Gate("fast-kernel-speedup", "compression", "fast.aggregate.*.speedup",
         ">=", "fast_kernel_speedup", CHECK_TOLERANCE,
         applies_to_key=_compiled_lz),
    Gate("sim-floor", "sim", "workloads.*.pages_per_second",
         ">=", "sim_pages_per_second", _FLOOR, _at_scale),
    Gate("sim-aggregate-floor", "sim", "aggregate.pages_per_second",
         ">=", "sim_aggregate_pages_per_second", _FLOOR, _at_scale),
    Gate("sim-floor-scalar", "sim", "scalar.workloads.*.pages_per_second",
         ">=", "sim_pages_per_second_scalar", _FLOOR, _scalar_at_scale),
    Gate("sim-aggregate-floor-scalar", "sim",
         "scalar.aggregate.pages_per_second", ">=",
         "sim_aggregate_pages_per_second_scalar", _FLOOR, _scalar_at_scale),
    # Fails only when the overhead is above its ceiling by more than the
    # run's own noise band (lower bound = overhead - band).
    Gate("overhead", "sim", "overhead.*.lower_bound_percent",
         "<=", "overhead_ceiling_percent", applies_to_key=_compiled_lz),
    Gate("contentgen-floor", "sim", "contentgen.pages_per_second",
         ">=", "contentgen_pages_per_second", _FLOOR),
    Gate("logstore-floor", "compression", "micro.logstore_churn_ops_s",
         ">=", "logstore_churn_ops_per_second", _FLOOR),
    # The replay's resident set is its interpreter, one machine and the
    # mapped trace; the trace length depends on the scale it ran at.
    Gate("stream-replay-rss", "sim", "stream_replay.peak_rss_mb",
         "<=", "stream_replay_peak_rss_mb", 1.0, _at_scale),
    # A fresh interpreter importing one process kind's modules: a
    # package __init__ or a registry that imports eagerly again fails it.
    Gate("import-footprint", "compression", "import_footprint.*.peak_rss_mb",
         "<=", "import_footprint_mb", 1.0, _footprint_measured),
    # A digest mismatch on the same spec is a determinism regression,
    # the one failure with no tolerance.
    Gate("service-ledger-digest", "service", "determinism.ledger_digest",
         "==", "service.ledger_digest", 1.0, _same_spec),
    Gate("service-throughput", "service", "scaling.best_ops_s",
         ">=", "service.min_ops_per_second", _FLOOR),
    Gate("service-scaling", "service", "scaling.speedup",
         ">=", "service.min_speedup", 1.0, _enough_cpus),
    Gate("service-p99", "service",
         "runs.{scaling.best_shards}.latency_us.p99",
         "<=", "service.max_p99_us"),
    # One shard's own peak above what it started with: its slots'
    # stores, their selectors and whatever scratch those carry.
    Gate("service-shard-rss", "service", "runs.1.shard_peak_rss_growth_mb",
         "<=", "service.max_shard_rss_growth_mb", 1.0,
         _shard_memory_measured),
    # The same, on distinct pages it should keep nothing of: what the
    # selectors hold on the side stays under their byte budget plus a
    # constant a page and a slot, at every slot count.
    Gate("service-adversarial-rss", "service",
         "adversarial.runs.*.shard_peak_rss_growth_mb", "<=",
         "service.max_adversarial_shard_rss_growth_mb", 1.0,
         _adversarial_measured),
)


class GateReport(NamedTuple):
    """Outcome of :func:`evaluate_gates`; every line names its row."""

    failures: List[str]
    skipped: List[str]    # rows not judged, each with the reason
    passed: List[str]


def evaluate_gates(payloads: Mapping[str, Optional[Dict]],
                   baseline: Dict) -> GateReport:
    """Judge every :data:`GATES` row; nothing is skipped silently.

    A row is *skipped* — and listed with the reason — when its payload
    was not measured in this run, the baseline commits no threshold for
    it, or its applicability predicate says the host or run cannot judge
    it; one key of a dict row is skipped, by its label, the same way.
    A supplied payload for which the baseline commits *no* threshold at
    all is a failure: checking against a baseline that gates nothing
    must not read as a pass.
    """
    report = GateReport([], [], [])
    ungated = {name for name, payload in payloads.items()
               if payload is not None}
    for gate in GATES:
        payload = payloads.get(gate.payload)
        committed = _lookup(baseline, gate.threshold)
        if payload is None:
            reason = f"no {gate.payload} payload in this run"
        elif committed is _MISSING:
            reason = f"no {gate.threshold} in the baseline"
        else:
            ungated.discard(gate.payload)
            reason = gate.applies and gate.applies(payload, baseline)
        if reason:
            report.skipped.append(f"{gate.name}: {reason}")
            continue
        rows = (committed.items() if isinstance(committed, dict)
                else [("", committed)])
        for key, value in rows:
            label = f"{gate.name} {key}".rstrip()
            reason = gate.applies_to_key and gate.applies_to_key(key, payload)
            if reason:
                report.skipped.append(f"{label}: {reason}")
                continue
            got = _lookup(payload, gate.measured.replace("*", key))
            failure = gate.judge(got, value)
            if failure is None:
                report.passed.append(label)
            else:
                report.failures.append(f"{label}: {failure}")
    report.failures.extend(
        f"{name}: the baseline commits no threshold for this payload"
        for name in sorted(ungated)
    )
    return report


def check_baseline(payloads: Mapping[str, Optional[Dict]],
                   baseline_path: Path,
                   echo: Callable[[str], None] = print) -> int:
    """``--check``: judge ``payloads`` against a baseline file.

    Returns a process exit code: 0 when every applicable row holds, 1 on
    a regression, 2 when the baseline file is missing.
    """
    if not baseline_path.is_file():
        echo(f"error: baseline file not found: {baseline_path}")
        return 2
    report = evaluate_gates(payloads, json.loads(baseline_path.read_text()))
    for line in report.skipped:
        echo(f"skipped: {line}")
    for line in report.failures:
        echo(f"REGRESSION: {line}")
    if report.failures:
        return 1
    echo(f"{len(report.passed)} checks within tolerance of baseline "
         f"{baseline_path}: ok")
    return 0


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
    echo(f"lz library: {_lz_library()} (every kernel's fast row, "
         "against its Python loop)")
    pages_per_kind, reps = (6, 3) if quick else (16, 5)
    echo(f"compression kernels: {pages_per_kind} pages/kind, "
         f"best of {reps} interleaved rounds ...")
    compression = bench_compression(pages_per_kind, reps)
    for name, agg in compression["fast"]["aggregate"].items():
        echo(f"  {name}: fast {agg['fast_mb_s']:.2f} MB/s, "
             f"scalar {agg['scalar_mb_s']:.2f} MB/s "
             f"({agg['speedup']:.2f}x; per-kind mean "
             f"{agg['mean_kind_speedup']:.2f}x)")
    echo("hot-structure micro-benchmarks ...")
    micro = bench_micro(reps=3 if quick else 5)
    compression["micro"] = micro
    for key, value in micro.items():
        if key.endswith("_ops_s"):
            echo(f"  {key[:-6]}: {value:,.0f} ops/s")
    echo("import footprint (fresh interpreter, VmHWM) ...")
    try:
        compression["import_footprint"] = bench_import_footprint()
    except RuntimeError as exc:
        echo(f"  import footprint failed: {exc}")
    for name, row in compression.get("import_footprint", {}).items():
        peak = ("unknown" if row["peak_rss_mb"] is None
                else f"{row['peak_rss_mb']:.1f} MB")
        echo(f"  {name}: {peak}, {row['repro_modules']} repro modules, "
             f"numpy {'loaded' if row['numpy_loaded'] else 'not loaded'}")
    comp_path = out_dir / "BENCH_compression.json"
    comp_path.write_text(json.dumps(compression, indent=2) + "\n")
    echo(f"wrote {comp_path}")

    scale = 0.05 if quick else 0.12
    sim = None
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
             f"{sim['aggregate']['references']} references; kernel caches "
             f"emptied each round: {sim['cold']['pages_per_second']:,.0f} "
             f"refs/s")
        if sim["mode"] == "fast":
            echo("simulation throughput, scalar kernels (fast=False) ...")
            sim["scalar"] = bench_sim(scale=scale, fast=False)
            echo(f"  aggregate (scalar): "
                 f"{sim['scalar']['aggregate']['pages_per_second']:,.0f} "
                 f"refs/s")
        echo("streamed binary-trace replay (mmap reader, child process "
             "RSS) ...")
        replay_refs = 200_000 if quick else 10_000_000
        try:
            replay = bench_stream_replay(references=replay_refs)
        except RuntimeError as exc:
            echo(f"  stream replay failed: {exc}")
        else:
            sim["stream_replay"] = replay
            rss = ("unknown" if replay["peak_rss_mb"] is None
                   else f"{replay['peak_rss_mb']:.0f} MB")
            echo(f"  {replay['references']:,} refs "
                 f"({replay['trace_bytes'] / 1e6:.0f} MB trace): "
                 f"{replay['references_per_second']:,.0f} refs/s, "
                 f"peak RSS {rss}")
        echo("same-process overheads (variant vs baseline machine, "
             "interleaved) ...")
        sim["overhead"] = bench_overhead(scale=0.05,
                                         reps=5 if quick else 8)
        for name, row in sim["overhead"].items():
            unresolved = row["verdict"] == "unresolved"
            echo(f"  {name}: {row['overhead_percent']:+.1f}% "
                 f"(noise band {row['band_percent']:.1f}%, at least "
                 f"{row['lower_bound_percent']:+.1f}%)"
                 + (": unresolved" if unresolved else ""))
        echo("page generation, memos emptied ...")
        sim["contentgen"] = bench_contentgen(reps=3 if quick else 5)
        for kind, ms in sim["contentgen"]["ms_per_page"].items():
            echo(f"  {kind}: {ms:.3f} ms/page")
        draw = sim["contentgen"]["bulk_draw"]
        numpy_ms = ("absent" if draw["numpy_ms"] is None
                    else f"{draw['numpy_ms']:.3f} ms")
        echo(f"  all: {sim['contentgen']['pages_per_second']:,.0f} pages/s; "
             f"bulk draw of {draw['outputs']} outputs: numpy {numpy_ms}, "
             f"python {draw['python_ms']:.3f} ms")
        sim_path = out_dir / "BENCH_sim.json"
        sim_path.write_text(json.dumps(sim, indent=2) + "\n")
        echo(f"wrote {sim_path}")

    if profile is not None:
        echo(f"profiling simulator at scale {scale} "
             f"(top {profile} functions) ...")
        report = profile_sim(scale=scale, top_n=profile)
        prof_path = (profile_out if profile_out is not None
                     else out_dir / "BENCH_profile.txt")
        prof_path.parent.mkdir(parents=True, exist_ok=True)
        prof_path.write_text(report)
        for line in report.splitlines():
            if line.startswith("  repro."):
                echo(line)
        echo(f"wrote {prof_path}")

    if check is not None:
        return check_baseline({"compression": compression, "sim": sim},
                              check, echo)
    return 0
