"""``lfs-churn``: the log-structured store driven directly.

No simulator and no service: ``LogStructuredStore.put/get/free`` with
``maybe_collect`` every 64 operations on a 256-segment log, small enough
that the cleaner and the checkpoints cycle hundreds of times per pass
and bytes appended per user byte levels off.  A pass ends with ``flush``
and ``crash_and_recover``; then every acknowledged page must read back
equal to the last payload put.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from harness import (
    Chunk,
    WorkloadResult,
    best_seconds,
    passes_for,
    time_setup,
)

from repro.mem.page import PageId
from repro.storage.disk import DiskModel
from repro.storage.logstore import LogStoreConfig, LogStructuredStore

PUT, GET, FREE = 0, 1, 2

#: About 20 MBytes put into an 8-MByte log: the cleaner laps it twice.
OPS_PER_PASS = 24_000
QUICK_OPS = 1_500
PASS_SECONDS = 1.0
COLLECT_EVERY = 64
#: Operations per timed chunk: one cleaner cycle (about 3 ms).
CHUNK_OPS = COLLECT_EVERY
#: 3000 keys x ~1.5 KB is about half of the 8-MByte log, so the cleaner
#: always has both garbage to find and live data to copy.
KEYS = 3000
HOT_KEYS = KEYS // 5
PAYLOAD_POOL = 512
LOG = LogStoreConfig(total_segments=256)

_clock = time.perf_counter


@dataclass
class Inputs:
    #: (verb, page, payload or None), in order.
    ops: List[Tuple[int, PageId, Optional[bytes]]]
    #: page -> payload every live page must hold after the last op.
    final: Dict[PageId, bytes]
    user_bytes: int
    gets: int


def _set_up(seed: int, count: int) -> Inputs:
    rng = random.Random(seed)
    pool = [rng.randbytes(rng.randint(400, 2600))
            for _ in range(PAYLOAD_POOL)]
    pages = [PageId(1 + number // 1024, number % 1024)
             for number in range(KEYS)]
    live: Dict[PageId, bytes] = {}
    order: List[PageId] = []          # live pages, for O(1) random pick
    slot: Dict[PageId, int] = {}
    ops = []
    user_bytes = gets = 0
    for _ in range(count):
        draw = rng.random()
        if draw < 0.55 or not order:
            # Overwrite-skewed: four puts in five go to a fifth of the keys.
            page = pages[rng.randrange(HOT_KEYS) if rng.random() < 0.8
                         else rng.randrange(KEYS)]
            payload = pool[rng.randrange(PAYLOAD_POOL)]
            if page not in live:
                slot[page] = len(order)
                order.append(page)
            live[page] = payload
            user_bytes += len(payload)
            ops.append((PUT, page, payload))
            continue
        page = order[rng.randrange(len(order))]
        if draw < 0.90:
            ops.append((GET, page, live[page]))
            gets += 1
        else:
            last = order.pop()
            if last != page:
                order[slot[page]] = last
                slot[last] = slot[page]
            del slot[page], live[page]
            ops.append((FREE, page, None))
    return Inputs(ops, live, user_bytes, gets)


def _one_pass(inputs: Inputs, out: WorkloadResult
              ) -> Tuple[List[Chunk], LogStructuredStore]:
    store = LogStructuredStore(DiskModel.rz57(), config=LOG)
    put, get, free = store.put, store.get, store.free
    collect = store.maybe_collect
    chunks: List[Chunk] = []
    latencies: List[float] = []
    wrong = 0
    chunk_start = _clock()
    for index, (verb, page, payload) in enumerate(inputs.ops, 1):
        start = _clock()
        if verb == PUT:
            put(page, payload)
        elif verb == GET:
            if get(page)[0] != payload:
                wrong += 1
        else:
            free(page)
        if index % COLLECT_EVERY == 0:
            # A caller sees the cleaner as a stall of the operation
            # that triggered it.
            collect()
        end = _clock()
        latencies.append(end - start)
        if index % CHUNK_OPS == 0:
            chunks.append(Chunk(end - chunk_start, len(latencies), latencies))
            latencies = []
            chunk_start = end
    if latencies:
        chunks.append(Chunk(_clock() - chunk_start, len(latencies),
                            latencies))
    start = _clock()
    store.flush()
    flushed = _clock()
    store.crash_and_recover()
    end = _clock()
    chunks.append(Chunk(end - start, 2, [flushed - start, end - flushed]))
    if wrong:
        out.fail(wrong, f"{wrong} gets returned a payload other than "
                        "the last one put")
    return chunks, store


def _verify(inputs: Inputs, store: LogStructuredStore,
            out: WorkloadResult) -> None:
    """After the crash every acknowledged page reads back equal, and
    (everything was flushed) the acknowledged set is the live set."""
    acknowledged = store.acknowledged_pages()
    out.attempted += len(acknowledged)
    if set(acknowledged) != set(inputs.final):
        lost = len(set(inputs.final) - set(acknowledged))
        extra = len(set(acknowledged) - set(inputs.final))
        out.fail(lost + extra, f"recovery lost {lost} flushed pages and "
                               f"resurrected {extra} freed ones")
    for page in acknowledged:
        expected = inputs.final.get(page)
        if expected is not None and store.get(page)[0] != expected:
            out.fail(1, f"{page} differs after crash_and_recover")


def _counts(inputs: Inputs, store: LogStructuredStore) -> Dict[str, float]:
    in_use = LOG.total_segments - store.free_segments
    return {
        # Every get names a live page, so anything below 1 is a loss.
        "hit_rate": store.counters.pages_got / inputs.gets,
        # Log bytes occupied per live byte; above 1 by the cleaner's slack.
        "resident_fraction": in_use * LOG.segment_bytes / store.live_bytes,
        "write_amp": store.counters.appended_bytes / inputs.user_bytes,
    }


def run(name: str, seed: int, seconds: float, quick: bool,
        recorder) -> WorkloadResult:
    count = QUICK_OPS if quick else OPS_PER_PASS
    passes = 2 if quick or recorder else passes_for(seconds, PASS_SECONDS)
    out = WorkloadResult(passes=[])
    first_counts = None
    for index in range(passes):
        # A set-up is 25 ms here, so every pass gets one: the median of
        # K samples holds where the median of five still moved.
        inputs = time_setup(out.setup_seconds, lambda: _set_up(seed, count))
        chunks, store = _one_pass(inputs, out)
        out.passes.append(chunks)
        out.attempted += len(inputs.ops) + 2
        counts = _counts(inputs, store)
        _verify(inputs, store, out)
        if first_counts is None:
            first_counts = counts
        elif counts != first_counts:
            out.fail(len(inputs.ops), f"pass counts differ: {counts} != "
                                      f"{first_counts}")
    out.counts = first_counts
    if recorder is not None:
        _traced(inputs, recorder, out)
    return out


def _traced(inputs: Inputs, recorder, out: WorkloadResult) -> None:
    from trace import layer_metrics

    traced_passes = []
    scratch = WorkloadResult(passes=[])
    stores = []
    with recorder.installed():
        for _ in range(2):
            chunks, store = _one_pass(inputs, scratch)
            traced_passes.append(chunks)
            stores.append(store)
    layers = layer_metrics(
        recorder,
        sum(c.seconds for p in traced_passes for c in p),
        best_seconds(out.passes) / best_seconds(traced_passes),
    )
    layers["storage.logstore.checkpoints"] = sum(
        s.counters.checkpoints_written for s in stores)
    layers["storage.logstore.cleaner_copied_bytes"] = sum(
        s.counters.cleaner_copied_bytes for s in stores)
    layers["storage.logstore.recover_scanned_bytes"] = sum(
        s.recovery.scanned_bytes for s in stores)
    out.layers = layers
