"""`repro serve-bench`: deterministic traffic replay + BENCH_service.json.

The bench replays one seeded Zipf/tenant-mix op stream (see
:mod:`repro.workloads.traffic`) against a :class:`CacheService` at each
requested shard count.  Two figures come out of every run:

* a **determinism digest** — the sha256 of the merged per-tenant
  ledgers.  The same spec must produce the same digest at *every* shard
  count (the virtual-slot invariance contract); the bench asserts it and
  CI's service-smoke job pins it against
  ``benchmarks/perf_baseline.json``.
* **throughput and latency** — ops/s overall and per shard, plus
  p50/p95/p99/p999 from the HDR-style
  :class:`~repro.service.latency.LatencyRecorder` each client feeds.

Each shard count is one :class:`~repro.sweep.SweepPoint` executed
through :func:`repro.sweep.run_sweep`, so ``--resume`` gives serve-bench
the same JSONL checkpointing the experiment sweeps have: an interrupted
multi-point bench resumes without re-measuring completed shard counts.

Beside the measured ``hit_rate`` each run reports the op stream's own
LRU hit-rate curve (:func:`hit_rate_curve`), and every bench ends with
an adversarial memory stream (:func:`adversarial_memory`): distinct
pages that a shard must not keep beyond its finished-result budget.

Latency is measured client-side around each awaited submission, so it
includes queueing, batching, IPC, and the shard's compression work —
the number a caller of the service would see.  Under ``--pace`` it runs
from the op's scheduled send, so time spent queued behind a slow op
counts too.
"""

from __future__ import annotations

import asyncio
import os
import random
import time
from collections import Counter
from typing import Any, Dict, List, Mapping, Optional, Sequence

from ..counters import proc_status_kb
from ..workloads.traffic import (
    DELETE,
    GET,
    TenantTraffic,
    TrafficOp,
    TrafficSpec,
    diurnal_multiplier,
    generate_ops,
)
from .config import ServiceConfig, TenantSpec
from .errors import BackpressureError
from .latency import LatencyRecorder, merge_all
from .ledger import ledger_digest
from .protocol import OP_DELETE, OP_GET, OP_PUT, STATUS_NAMES
from .server import CacheService
from .shard import sum_selection

#: First backoff after a retryable rejection, and the cap the
#: exponential doubling saturates at.  The cap keeps a persistently
#: saturated service from stretching a client's retry gaps past the
#: point where the bench's pacing model means anything.
RETRY_INITIAL_S = 0.0005
RETRY_MAX_S = 0.032

#: Import path of :func:`run_service_point` for SweepPoint specs.
SERVICE_RUNNER = "repro.service.bench:run_service_point"

#: The adversarial memory stream: this many distinct 4-KByte pages
#: (40 MBytes, two and a half times the selector's 16-MByte
#: finished-result budget), all PUT once and then all again, into one
#: shard at each slot count.  One page in
#: :data:`ADVERSARIAL_COMPRESSIBLE_EVERY` is 1 KByte of random bytes and
#: zeros, which the selectors trial; the rest are random, which the
#: kind memo sends to one kernel that gives up.
ADVERSARIAL_PAGES = 10240
ADVERSARIAL_COMPRESSIBLE_EVERY = 8
ADVERSARIAL_VSLOTS = (64, 1024)


def _config_from_spec(spec: Mapping[str, Any]) -> ServiceConfig:
    return ServiceConfig(
        shards=int(spec["shards"]),
        vslots=int(spec.get("vslots", ServiceConfig.vslots)),
        tenants=tuple(
            TenantSpec(t["name"], t.get("quota_bytes"))
            for t in spec["tenants"]
        ),
        tier_bytes=tuple(spec["tier_bytes"]),
        compressor=spec.get("compressor", "lzrw1"),
        page_size=int(spec["page_size"]),
        batch_ops=int(spec.get("batch_ops", ServiceConfig.batch_ops)),
        max_pending=int(
            spec.get("max_pending", ServiceConfig.max_pending)
        ),
    )


def _traffic_from_spec(spec: Mapping[str, Any]) -> TrafficSpec:
    return TrafficSpec(
        ops=int(spec["ops"]),
        seed=int(spec["seed"]),
        tenants=tuple(
            TenantTraffic(
                t["name"],
                weight=float(t.get("weight", 1.0)),
                keys=int(t.get("keys", 4096)),
            )
            for t in spec["tenants"]
        ),
        zipf_s=float(spec.get("zipf_s", 1.1)),
        read_fraction=float(spec.get("read_fraction", 0.7)),
        delete_fraction=float(spec.get("delete_fraction", 0.05)),
        page_size=int(spec["page_size"]),
        diurnal_amplitude=float(spec.get("diurnal_amplitude", 0.0)),
        diurnal_periods=float(spec.get("diurnal_periods", 1.0)),
    )


async def _client(
    service: CacheService,
    ops: Sequence[TrafficOp],
    traffic: TrafficSpec,
    recorder: LatencyRecorder,
    statuses: Counter,
    offsets: Optional[Sequence[float]] = None,
    start: float = 0.0,
    retries: Optional[Counter] = None,
) -> None:
    """Replay one vslot-partitioned queue sequentially.

    Awaiting each submission before issuing the next preserves per-slot
    op order (the determinism contract); concurrency comes from running
    many clients, not from pipelining within one.

    Submissions go in with ``wait=False``, so admission control answers
    a full shard or a tenant at its in-flight cap with a *retryable*
    :class:`BackpressureError` instead of parking the client; the
    client then backs off (exponential, doubling from
    :data:`RETRY_INITIAL_S`, capped at :data:`RETRY_MAX_S`) and resends
    the same op.  Per-slot order is preserved — the client never moves
    on until the current op is accepted.  Retry counts land in
    ``retries`` (keyed by tenant index).  Non-retryable errors
    propagate: a dead shard is a bench failure, not a retry loop.
    """
    clock = time.perf_counter
    clock_ns = time.perf_counter_ns
    for index, op in enumerate(ops):
        # Generate the payload before the clock starts: content
        # generation is the *client's* cost, not service latency.
        payload = op.payload(traffic)
        if op.op == GET:
            wire = (OP_GET, None)
        elif op.op == DELETE:
            wire = (OP_DELETE, None)
        else:
            wire = (OP_PUT, payload)
        # Latency includes the retry loop: time-to-acceptance is what a
        # backpressured caller experiences.  A paced op's clock starts
        # at its scheduled send, so an op that waited behind a slow one
        # counts the wait (no coordinated omission).
        if offsets is not None:
            due = start + offsets[index]
            delay = due - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            t0 = round(due * 1e9)
        else:
            t0 = clock_ns()
        backoff = RETRY_INITIAL_S
        while True:
            try:
                status, _ = await service.submit(
                    wire[0], op.tenant, op.key, wire[1], wait=False
                )
                break
            except BackpressureError as exc:
                if not exc.retryable:
                    raise
                if retries is not None:
                    retries[op.tenant] += 1
                await asyncio.sleep(backoff)
                backoff = min(backoff * 2.0, RETRY_MAX_S)
        recorder.record(max(1, (clock_ns() - t0) // 1000))
        statuses[STATUS_NAMES[status]] += 1


async def replay_traffic(
    config: ServiceConfig,
    traffic: TrafficSpec,
    clients: int = 8,
    pace_ops_s: Optional[float] = None,
) -> Dict[str, Any]:
    """Run the full op stream against a fresh service; return metrics.

    ``pace_ops_s`` switches from flat-out replay to offered-load pacing:
    each op is scheduled at the cumulative time a ``pace_ops_s`` mean
    rate shaped by the spec's diurnal sinusoid implies.  Throughput
    numbers then measure the *service under that load*, not its ceiling.
    """
    ops = list(generate_ops(traffic))
    offsets_all: Optional[List[float]] = None
    if pace_ops_s:
        offsets_all = []
        elapsed = 0.0
        for index in range(len(ops)):
            rate = pace_ops_s * diurnal_multiplier(
                index / len(ops),
                traffic.diurnal_amplitude,
                traffic.diurnal_periods,
            )
            elapsed += 1.0 / rate
            offsets_all.append(elapsed)
    # Partition by index so the pacing offsets ride along with their
    # ops; the routing is exactly partition_by_vslot's.
    index_queues: List[List[int]] = [[] for _ in range(clients)]
    for index, op in enumerate(ops):
        index_queues[(op.key % config.vslots) % clients].append(index)
    queues = [[ops[i] for i in queue] for queue in index_queues]
    offset_queues: List[Optional[List[float]]] = [
        None if offsets_all is None
        else [offsets_all[i] for i in queue]
        for queue in index_queues
    ]
    service = CacheService(config)
    await service.start()
    try:
        recorders = [LatencyRecorder() for _ in queues]
        statuses: Counter = Counter()
        retries: Counter = Counter()
        start = time.perf_counter()
        await asyncio.gather(*(
            _client(service, queue, traffic, recorders[i], statuses,
                    offsets=offset_queues[i], start=start,
                    retries=retries)
            for i, queue in enumerate(queues)
        ))
        wall = time.perf_counter() - start
        stats = await service.stats()
        batches_sent = list(service.batches_sent)
    finally:
        await service.stop()
    latency = merge_all(recorders)
    total_batches = sum(batches_sent) or 1
    gets = sum(ledger["gets"] for ledger in stats["ledgers"].values())
    hits = sum(ledger["hits"] + ledger["cold_hits"]
               for ledger in stats["ledgers"].values())
    selectors = [
        shard["selector"] for shard in stats["shards"] if "selector" in shard
    ]
    per_shard = []
    for shard in stats["shards"]:
        per_shard.append({
            "shard": shard["shard"],
            "ops": shard["ops"],
            "batches": shard["batches"],
            "busy_seconds": shard["busy_seconds"],
            "ops_per_second": round(shard["ops"] / wall, 1),
            "resident_bytes": shard["resident_bytes"],
            "resident_entries": shard["resident_entries"],
            "peak_rss_growth_mb": shard["peak_rss_growth_mb"],
        })
    growth = [shard["peak_rss_growth_mb"] for shard in per_shard]
    return {
        "shards": config.shards,
        "clients": clients,
        "ops": len(ops),
        "wall_seconds": round(wall, 4),
        "ops_per_second": round(len(ops) / wall, 1),
        "paced_ops_s": pace_ops_s,
        "mean_batch_ops": round(len(ops) / total_batches, 2),
        "latency_us": latency.snapshot(),
        "statuses": dict(sorted(statuses.items())),
        "backpressure_retries": {
            "total": sum(retries.values()),
            "by_tenant": {
                str(tenant): count
                for tenant, count in sorted(retries.items())
            },
        },
        "per_shard": per_shard,
        # The largest shard's own memory (None without /proc).
        "shard_peak_rss_growth_mb": (
            None if None in growth else max(growth)
        ),
        "ledgers": stats["ledgers"],
        "ledger_digest": ledger_digest(stats["ledgers"]),
        "selector": sum_selection(selectors) if selectors else None,
        "hit_rate": hits / gets if gets else 0.0,
        "hit_rate_curve": hit_rate_curve(config, ops),
    }


def hit_rate_curve(config: ServiceConfig,
                   ops: Sequence[TrafficOp]) -> Dict[str, Any]:
    """The op stream's LRU hit rate: infinite, and at the slots' size.

    Each virtual slot's ``(tenant, key)`` references, under the store's
    rules (:func:`repro.model.locality.store_distances`), give the hit
    rate of every LRU size in one pass.  ``capacity_pages`` is a slot's
    tiers counted in raw pages.  With the ``null`` kernel, one tier and
    no quota a slot *is* that LRU, so the measured ``hit_rate`` equals
    ``at_capacity`` exactly; compressed tiers fit more pages, and a
    second tier and quotas change what is evicted, so elsewhere the
    curve is a reference, not a prediction.
    """
    from ..model.locality import MissRatioCurve, store_distances

    by_slot: Dict[int, List] = {}
    for op in ops:
        by_slot.setdefault(config.vslot_of(op.key), []).append(
            (op.op, (op.tenant, op.key)))
    curve = MissRatioCurve.from_distances([
        distance for refs in by_slot.values()
        for distance in store_distances(refs)
    ])
    capacity = sum(tier // config.page_size
                   for tier in config.slot_tier_bytes())
    gets = curve.references or 1
    return {
        "capacity_pages": capacity,
        "at_capacity": (gets - curve.faults_at(capacity)) / gets,
        "infinite": (gets - curve.compulsory) / gets,
    }


def adversarial_page(number: int, seed: int) -> bytes:
    """Page ``number`` of the adversarial stream (see
    :data:`ADVERSARIAL_PAGES`); a pure function of its arguments."""
    rng = random.Random(f"{seed}:{number}")
    if number % ADVERSARIAL_COMPRESSIBLE_EVERY:
        return rng.randbytes(4096)
    return rng.randbytes(1024) + bytes(3072)


def _reset_peak_rss() -> bool:
    """Restart this process's ``VmHWM`` from its ``VmRSS`` (Linux)."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        return False
    return True


async def _adversarial_run(vslots: int, seed: int) -> Dict[str, Any]:
    config = ServiceConfig(
        shards=1, vslots=vslots, tenants=(TenantSpec("adversary"),),
        tier_bytes=(vslots * 4096,), compressor="adaptive",
    )
    queues: List[List[int]] = [[] for _ in range(8)]
    for key in range(ADVERSARIAL_PAGES):
        queues[config.vslot_of(key) % len(queues)].append(key)

    async def client(keys: List[int]) -> None:
        for _ in range(2):
            for key in keys:
                await service.submit(OP_PUT, 0, key,
                                     adversarial_page(key, seed))

    start = proc_status_kb("VmRSS") if _reset_peak_rss() else None
    service = CacheService(config)
    await service.start()
    try:
        await asyncio.gather(*(client(queue) for queue in queues))
        stats = await service.stats()
    finally:
        await service.stop()
    peak = proc_status_kb("VmHWM")
    shard = stats["shards"][0]
    return {
        "vslots": vslots,
        "shard_peak_rss_growth_mb": shard["peak_rss_growth_mb"],
        "front_end_peak_rss_growth_mb": (
            None if start is None or peak is None
            else round((peak - start) / 1024, 2)
        ),
        "resident_bytes": shard["resident_bytes"],
        "selector": shard.get("selector"),
    }


def adversarial_memory(seed: int = 1234) -> Dict[str, Any]:
    """What one shard keeps of a stream it should keep nothing of.

    Every page is distinct and PUT twice into one tier a page a slot
    wide, so almost nothing stays resident; what the shard grows by
    is what its selectors keep on the side.  The
    ``service-adversarial-rss`` gate holds that under the finished-result
    budget plus a constant a page and a slot
    (``benchmarks/perf_baseline.json``).
    """
    return {
        "pages": ADVERSARIAL_PAGES,
        "runs": {
            str(vslots): asyncio.run(_adversarial_run(vslots, seed))
            for vslots in ADVERSARIAL_VSLOTS
        },
    }


def run_service_point(spec: Mapping[str, Any]) -> Dict[str, Any]:
    """Sweep-runner entry point: one shard count, one full replay.

    A pure function of the spec on the determinism axis (ledgers and
    digest); wall-clock figures vary run to run, which is why resumed
    checkpoints keep their original timings.
    """
    config = _config_from_spec(spec)
    traffic = _traffic_from_spec(spec)
    return asyncio.run(replay_traffic(
        config, traffic,
        clients=int(spec.get("clients", 8)),
        pace_ops_s=spec.get("pace_ops_s"),
    ))


def service_spec(
    shards: int,
    ops: int = 20000,
    seed: int = 1234,
    vslots: int = ServiceConfig.vslots,
    compressor: str = "adaptive",
    tier_bytes: Sequence[int] = (4 << 20, 4 << 20),
    page_size: int = 4096,
    tenants: Optional[Sequence[Mapping[str, Any]]] = None,
    batch_ops: int = 32,
    clients: int = 8,
    zipf_s: float = 1.1,
    **extra: Any,
) -> Dict[str, Any]:
    """The default bench spec: two tenants, one quota-bound, Zipf 1.1."""
    if tenants is None:
        tenants = [
            {"name": "alpha", "weight": 3.0, "keys": 3000,
             "quota_bytes": None},
            {"name": "beta", "weight": 1.0, "keys": 1000,
             "quota_bytes": 1 << 20},
        ]
    spec: Dict[str, Any] = {
        "shards": shards,
        "vslots": vslots,
        "tenants": [dict(t) for t in tenants],
        "tier_bytes": list(tier_bytes),
        "compressor": compressor,
        "page_size": page_size,
        "batch_ops": batch_ops,
        "clients": clients,
        "ops": ops,
        "seed": seed,
        "zipf_s": zipf_s,
        "read_fraction": 0.7,
        "delete_fraction": 0.05,
    }
    spec.update(extra)
    return spec


def bench_service(
    shard_counts: Sequence[int] = (1, 2, 4),
    ops: int = 20000,
    seed: int = 1234,
    checkpoint: Optional[str] = None,
    progress=None,
    **spec_overrides: Any,
) -> Dict[str, Any]:
    """Measure every shard count; assert invariance; assemble the report.

    Returns the dict that becomes ``BENCH_service.json``.  Raises
    :class:`AssertionError` if any shard count's ledger digest differs —
    a determinism regression is a wrong answer, not a slow one.
    """
    from ..sweep import SweepPoint, run_sweep

    points = [
        SweepPoint(
            runner=SERVICE_RUNNER,
            spec=service_spec(shards, ops=ops, seed=seed,
                              **spec_overrides),
            key=f"service/shards={shards:02d}",
        )
        for shards in shard_counts
    ]
    sweep = run_sweep(points, jobs=1, checkpoint=checkpoint,
                      progress=progress)
    if sweep.failures:
        raise RuntimeError(
            f"serve-bench failed: {dict(sweep.failures)}"
        )
    runs = sweep.in_order(points)
    digests = {run["shards"]: run["ledger_digest"] for run in runs}
    if len(set(digests.values())) != 1:
        raise AssertionError(
            f"shard-count invariance violated: per-shard-count ledger "
            f"digests differ: {digests}"
        )
    single = next((r for r in runs if r["shards"] == 1), runs[0])
    best = max(runs, key=lambda r: r["ops_per_second"])
    if progress is not None:
        progress(f"adversarial memory stream: {ADVERSARIAL_PAGES} "
                 f"distinct pages, each PUT twice, at "
                 f"{'/'.join(map(str, ADVERSARIAL_VSLOTS))} vslots")
    return {
        "cpu_count": os.cpu_count(),
        "spec": dict(points[0].spec),
        "shard_counts": list(shard_counts),
        "runs": {str(run["shards"]): run for run in runs},
        "determinism": {
            "digests": {str(k): v for k, v in digests.items()},
            "all_equal": True,
            "ledger_digest": single["ledger_digest"],
        },
        "scaling": {
            "single_shard_ops_s": single["ops_per_second"],
            "best_ops_s": best["ops_per_second"],
            "best_shards": best["shards"],
            "speedup": round(
                best["ops_per_second"] / single["ops_per_second"], 3
            ),
        },
        "adversarial": adversarial_memory(seed),
    }
