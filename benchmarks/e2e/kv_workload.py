"""``kv-mixed``: the sharded cache service.

One shard process plus this process, which runs the asyncio front end
and two closed-loop coroutine clients (a caller is a pager blocked on
its fault, so it sends its next request only when the last one is
answered).  No sockets, no extra threads of ours, and both processes on
one CPU (``harness.pin_to_one_cpu``).

One read-mostly stream (75% GET / 20% PUT / 5% DELETE, Zipf 1.1, two
tenants, one of them quota-bound) is replayed on a fresh, empty service
each pass, with tiers a third of the working set.  Four requests in
five are cheap (a GET, a DELETE, a PUT whose content the shard has
compressed before), so the middle of the latency distribution is the
front end, the pipe and ``decompress``; the PUTs of new content
(selector trials, compression, demotion, eviction, quota enforcement)
are its tail and most of the shard's time.  Anything that trades
resident capacity for read speed shows both sides here: ``lat_mid_us``
against ``hit_rate`` and ``resident_fraction``.
"""

from __future__ import annotations

import asyncio
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from harness import (
    Chunk,
    WorkloadResult,
    children_peak_rss_mb,
    collector_paused,
    passes_for,
    setup_due,
)

from repro.compression.sampler import clear_shared_results
from repro.service.config import ServiceConfig, TenantSpec
from repro.service.errors import BackpressureError
from repro.service.protocol import (
    OP_DELETE,
    OP_GET,
    OP_PUT,
    ST_DELETED,
    ST_HIT,
    ST_MISS,
    ST_NOT_FOUND,
    ST_STORED,
    RequestBatch,
    ResponseBatch,
    iter_requests,
    parse_responses,
)
from repro.service.server import CacheService
from repro.service.store import VslotStore
from repro.workloads import contentgen
from repro.workloads.traffic import (
    DELETE,
    GET,
    TenantTraffic,
    TrafficSpec,
    generate_ops,
)

_clock = time.perf_counter

CLIENTS = 2
#: Operations of one client per timed chunk (about 10 ms).
CHUNK_OPS = 25
PAGE = 4096
#: Tenant name, traffic weight, distinct keys.
TENANTS = (("alpha", 3.0, 600), ("beta", 1.0, 200))
#: beta's stored-byte quota: 6 KBytes per virtual slot, which always
#: admits one page and binds on the second or third.
BETA_QUOTA = 64 * 6144
#: 800 pages store about 1.8 MBytes; the two tiers hold a third of that.
TIER_BYTES = (320 << 10, 320 << 10)
READ_FRACTION = 0.75
#: share of the non-read operations that delete.
DELETE_FRACTION = 0.20
OPS_PER_PASS = 3000
QUICK_OPS = 300
#: reference-host duration of one pass, fresh service included.
PASS_SECONDS = 1.6
RETRY_S = 0.0005

#: An op on the wire: (op code, tenant index, key, payload or None).
WireOp = Tuple[int, int, int, Optional[bytes]]


@dataclass
class Inputs:
    config: ServiceConfig
    stream: List[WireOp]


def _generate(seed: int, count: int) -> Inputs:
    config = ServiceConfig(
        shards=1,
        tenants=(TenantSpec("alpha"), TenantSpec("beta", BETA_QUOTA)),
        tier_bytes=TIER_BYTES,
        compressor="adaptive",
        page_size=PAGE,
    )
    traffic = TrafficSpec(
        ops=count, seed=seed,
        tenants=tuple(TenantTraffic(*tenant) for tenant in TENANTS),
        zipf_s=1.1, read_fraction=READ_FRACTION,
        delete_fraction=DELETE_FRACTION, page_size=PAGE,
    )
    index = {name: i for i, (name, _, _) in enumerate(TENANTS)}
    stream: List[WireOp] = []
    for op in generate_ops(traffic):
        code = (OP_GET if op.op == GET else
                OP_DELETE if op.op == DELETE else OP_PUT)
        stream.append((code, index[op.tenant], op.key, op.payload(traffic)))
    return Inputs(config, stream)


def _queues(config: ServiceConfig, ops: List[WireOp]) -> List[List[WireOp]]:
    """Per-client queues split along virtual-slot boundaries, so each
    slot sees its operations in stream order whatever the interleaving
    and every count repeats exactly."""
    queues: List[List[WireOp]] = [[] for _ in range(CLIENTS)]
    for op in ops:
        queues[config.vslot_of(op[2]) % CLIENTS].append(op)
    return queues


class Tally:
    """What the clients saw: the model of acknowledged state plus
    counts to hold against the service's own ledgers."""

    def __init__(self) -> None:
        #: key -> payload of the last acknowledged PUT (absent: deleted).
        self.model: Dict[int, bytes] = {}
        self.gets = self.hits = self.wrong = self.refused = 0
        self.retries = 0


async def _client(service: CacheService, queue: List[WireOp], tally: Tally,
                  chunks: List[Chunk]) -> None:
    submit = service.submit
    model = tally.model
    latencies: List[float] = []
    chunk_start = _clock()
    for index, (op, tenant, key, payload) in enumerate(queue, 1):
        start = _clock()
        while True:
            try:
                status, view = await submit(op, tenant, key, payload,
                                            wait=False)
                break
            except BackpressureError:
                tally.retries += 1
                await asyncio.sleep(RETRY_S)
        end = _clock()
        latencies.append(end - start)
        if op == OP_GET:
            tally.gets += 1
            if status == ST_HIT:
                tally.hits += 1
                # A hit must be the last acknowledged PUT, byte for byte.
                if model.get(key) != view:
                    tally.wrong += 1
            elif status != ST_MISS:
                tally.wrong += 1
        elif op == OP_PUT:
            if status == ST_STORED:
                model[key] = payload
            else:
                tally.refused += 1
        else:
            model.pop(key, None)
            if status not in (ST_DELETED, ST_NOT_FOUND):
                tally.wrong += 1
        if index % CHUNK_OPS == 0:
            chunks.append(Chunk(end - chunk_start, len(latencies),
                                latencies))
            latencies = []
            chunk_start = end
    if latencies:
        chunks.append(Chunk(_clock() - chunk_start, len(latencies),
                            latencies))


async def _replay(service: CacheService, ops: List[WireOp],
                  tally: Tally) -> Tuple[List[Chunk], float]:
    """Both clients through one op list; returns chunks and wall."""
    per_client: List[List[Chunk]] = [[] for _ in range(CLIENTS)]
    start = _clock()
    await asyncio.gather(*(
        _client(service, queue, tally, per_client[i])
        for i, queue in enumerate(_queues(service.config, ops))
    ))
    wall = _clock() - start
    return [chunk for chunks in per_client for chunk in chunks], wall


def _ledger_totals(stats: Dict) -> Dict[str, int]:
    """The service's ledger counters, summed over tenants."""
    total: Dict[str, int] = {}
    for ledger in stats["ledgers"].values():
        for key, value in ledger.items():
            total[key] = total.get(key, 0) + value
    return total


def _check_pass(stats: Dict, ledger: Dict[str, int], tally: Tally,
                config: ServiceConfig, out: WorkloadResult,
                label: str) -> None:
    """Client-side answers against the service's own accounting."""
    if tally.wrong:
        out.fail(tally.wrong, f"{label}: {tally.wrong} wrong answers")
    if tally.refused:
        out.fail(tally.refused, f"{label}: {tally.refused} PUTs refused")
    shard = stats["shards"][0]
    ledgers = stats["ledgers"]
    problems = []
    if sum(l["resident_bytes"] for l in ledgers.values()) \
            != shard["resident_bytes"]:
        problems.append("ledger resident bytes != sum of stored sizes")
    if sum(l["resident_entries"] for l in ledgers.values()) \
            != shard["resident_entries"]:
        problems.append("ledger resident entries != entries held")
    for tenant in config.tenants:
        held = ledgers.get(tenant.name, {}).get("resident_bytes", 0)
        if tenant.quota_bytes is not None and held > tenant.quota_bytes:
            problems.append(f"{tenant.name} holds {held} bytes, over quota")
    hits = ledger["hits"] + ledger["cold_hits"]
    if ledger["gets"] != hits + ledger["misses"]:
        problems.append("gets != hits + cold_hits + misses")
    if (ledger["gets"], hits) != (tally.gets, tally.hits):
        problems.append("ledger gets/hits differ from what clients saw")
    for problem in problems:
        out.fail(1, f"{label}: {problem}")


def _counts(stats: Dict, ledger: Dict[str, int]) -> Dict[str, float]:
    shard = stats["shards"][0]
    return {
        "hit_rate": (ledger["hits"] + ledger["cold_hits"]) / ledger["gets"],
        "resident_fraction":
            shard["resident_bytes"] / (shard["resident_entries"] * PAGE),
        # Bytes written into tier memory per byte a client PUT.
        "write_amp": ledger["stored_bytes"] / ledger["payload_bytes"],
    }


async def _start(config: ServiceConfig) -> CacheService:
    # The shard forks from this process: it must not inherit compressed
    # results, or passes would differ in how much kernel work they do.
    clear_shared_results()
    service = CacheService(config)
    await service.start()
    return service


@dataclass
class Pass:
    """One timed replay and what the service said afterwards."""

    chunks: List[Chunk]
    wall: float
    #: ledger counters of the pass, summed over tenants.
    ledger: Dict[str, int]
    counts: Dict[str, float]
    #: shard busy seconds and batches of the pass.
    busy: float
    batches: int


async def _measure(seed: int, seconds: float, quick: bool,
                   recorder) -> WorkloadResult:
    count = QUICK_OPS if quick else OPS_PER_PASS
    passes = 2 if quick or recorder else passes_for(seconds, PASS_SECONDS)
    out = WorkloadResult(passes=[], concurrency=CLIENTS)

    records: List[Pass] = []
    retries = 0
    service = None
    try:
        for index in range(passes):
            # Every pass gets a fresh, empty service; some get it from
            # a full, timed set-up: generate the inputs, bring one up.
            if service is not None:
                await service.stop()
            if setup_due(index, passes):
                contentgen.clear_caches()
                with collector_paused():
                    start = _clock()
                    inputs = _generate(seed, count)
                    generated = _clock() - start
                    service = await _start(inputs.config)
                    out.setup_seconds.append(_clock() - start)
            else:
                service = await _start(inputs.config)
            tally = Tally()
            chunks, wall = await _replay(service, inputs.stream, tally)
            stats = await service.stats()
            ledger = _ledger_totals(stats)
            _check_pass(stats, ledger, tally, inputs.config, out,
                        f"pass {index}")
            retries += tally.retries
            shard = stats["shards"][0]
            records.append(Pass(chunks, wall, ledger, _counts(stats, ledger),
                                shard["busy_seconds"], shard["batches"]))
    finally:
        await service.stop()

    # Every pass replays one stream on an empty service: same work.
    first = records[0]
    for index, record in enumerate(records[1:], 1):
        if (record.ledger, record.counts) != (first.ledger, first.counts):
            out.fail(len(inputs.stream),
                     f"pass {index} did different work: {record.ledger} "
                     f"!= {first.ledger}")
    out.passes = [record.chunks for record in records]
    out.attempted += len(records) * len(inputs.stream)
    out.counts = first.counts
    out.child_rss_mb = children_peak_rss_mb()
    if recorder is not None:
        out.layers = _service_layers(records, len(inputs.stream), retries)
        out.layers.update(_shadow_layers(inputs, recorder))
        out.layers["workloads.refs_gen_s"] = generated
    return out


def run(name: str, seed: int, seconds: float, quick: bool,
        recorder) -> WorkloadResult:
    return asyncio.run(_measure(seed, seconds, quick, recorder))


# -- the traced run ---------------------------------------------------


def _service_layers(measured: List[Pass], ops: int,
                    retries: int) -> Dict[str, float]:
    """What the service reports about itself over the untraced passes."""
    wall = sum(record.wall for record in measured)
    busy = sum(record.busy for record in measured)
    batches = sum(record.batches for record in measured)
    layers = {
        "service.shard.busy_s": busy,
        "service.shard.busy_fraction": busy / wall,
        "service.shard.batches": batches,
        "service.server.outside_shard_s": wall - busy,
        "service.server.mean_batch_ops": len(measured) * ops / batches,
        "service.server.backpressure_retries": retries,
    }
    for counter in ("demotions", "evictions", "quota_evictions"):
        layers[f"service.store.{counter}"] = sum(
            record.ledger[counter] for record in measured)
    return layers


def _shadow_replay(inputs: Inputs, recorder) -> float:
    """The same op stream against in-process ``VslotStore``s, with the
    wire encode/decode each op costs; returns the replay's wall time.

    The shard's inside cannot be spanned from this process, so its
    split (store bookkeeping, kernel, protocol) is taken here instead;
    with the untraced service numbers it gives the per-op budget
    ``latency = outside_shard + store self + kernel``.
    """
    config = inputs.config
    clear_shared_results()
    stores = {slot: VslotStore(config, slot) for slot in range(config.vslots)}

    def apply(ops: List[WireOp], span) -> None:
        for op, tenant, key, payload in ops:
            slot = config.vslot_of(key)
            with span("service.protocol.encode"):
                batch = RequestBatch()
                batch.add(op, tenant, slot, key, payload)
                frame = bytes(batch.finish())
            with span("service.protocol.decode"):
                (op, tenant, slot, key, body), = iter_requests(
                    memoryview(frame))
            store = stores[slot]
            page = None
            if op == OP_GET:
                page = store.get(tenant, key)
                status = ST_MISS if page is None else ST_HIT
            elif op == OP_PUT:
                store.put(tenant, key, bytes(body))
                status = ST_STORED
            else:
                store.delete(tenant, key)
                status = ST_DELETED
            with span("service.protocol.encode"):
                reply = ResponseBatch()
                reply.add(status, page)
                answer = bytes(reply.finish())
            with span("service.protocol.decode"):
                parse_responses(memoryview(answer))

    def quiet(name: str):
        return nullcontext()

    start = _clock()
    if recorder is None:
        apply(inputs.stream, quiet)
    else:
        with recorder.installed():
            with recorder.span("service.shadow"):
                apply(inputs.stream, recorder.span)
    return _clock() - start


def _shadow_layers(inputs: Inputs, recorder) -> Dict[str, float]:
    from trace import layer_metrics

    untraced_wall = _shadow_replay(inputs, None)
    traced_wall = _shadow_replay(inputs, recorder)
    layers = layer_metrics(recorder, traced_wall,
                           untraced_wall / traced_wall)
    totals = recorder.totals()
    ops = len(inputs.stream)
    for side in ("encode", "decode"):
        row = totals.get(f"service.protocol.{side}", {})
        layers[f"service.protocol.{side}_s"] = row.get("seconds", 0.0) / ops
    return layers
