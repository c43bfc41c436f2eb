"""Shard worker processes and their parent-side handles.

A shard is one OS process owning a disjoint set of virtual slots.  The
worker runs a single-threaded loop: receive one request frame (a whole
batch — one syscall), apply every record in order to the owning
:class:`~repro.service.store.VslotStore`, send one response frame.
Because slots are disjoint across shards and each frame is applied
sequentially, the per-slot operation order equals the front-end's
per-slot submission order — the other half of the determinism contract.

The parent side (:class:`ShardHandle`) owns the two pipes and a reader
thread.  The reader thread blocks in ``recv_bytes`` so the asyncio loop
never does; completed frames are handed to the loop with
``call_soon_threadsafe``.  A worker death surfaces as ``EOFError`` in
the reader, which the server translates into
:class:`~repro.service.errors.ShardDeadError` for every in-flight and
future request — requests fail fast, they never hang.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import threading
import time
from collections import Counter
from typing import Callable, Dict, Iterable, Mapping, Optional

from .config import ServiceConfig
from .ledger import merge_ledgers
from .protocol import (
    OP_DELETE,
    OP_GET,
    OP_PUT,
    OP_SHUTDOWN,
    OP_STATS,
    ST_BYE,
    ST_DELETED,
    ST_HIT,
    ST_MISS,
    ST_NOT_FOUND,
    ST_QUOTA_DENIED,
    ST_STATS,
    ST_STORED,
    ResponseBatch,
    iter_requests,
)
from .store import VslotStore


def shard_main(config: ServiceConfig, shard_id: int,
               requests, responses) -> None:
    """Worker-process entry point (module-level: spawn-safe).

    Args:
        config: the full service geometry (slots are derived from it).
        shard_id: this worker's index in ``range(config.shards)``.
        requests: read end of the request pipe.
        responses: write end of the response pipe.
    """
    slots: Dict[int, VslotStore] = {
        vslot: VslotStore(config, vslot)
        for vslot in config.slots_of_shard(shard_id)
    }
    delay = config.debug_op_delay_s
    ops = 0
    batches = 0
    busy_s = 0.0
    perf_counter = time.perf_counter
    running = True
    while running:
        try:
            frame = requests.recv_bytes()
        except (EOFError, OSError):
            break  # front-end went away; nothing left to serve
        t0 = perf_counter()
        reply = ResponseBatch()
        for op, tenant, vslot, key, payload in iter_requests(
            memoryview(frame)
        ):
            if delay:
                time.sleep(delay)
            if op == OP_GET:
                page = slots[vslot].get(tenant, key)
                if page is None:
                    reply.add(ST_MISS)
                else:
                    reply.add(ST_HIT, page)
            elif op == OP_PUT:
                # The one materializing copy on the path: the store
                # outlives the frame buffer, so it must own its bytes.
                stored = slots[vslot].put(tenant, key, bytes(payload))
                reply.add(ST_STORED if stored else ST_QUOTA_DENIED)
            elif op == OP_DELETE:
                removed = slots[vslot].delete(tenant, key)
                reply.add(ST_DELETED if removed else ST_NOT_FOUND)
            elif op == OP_STATS:
                reply.add(ST_STATS, _stats_blob(
                    config, shard_id, slots, ops, batches, busy_s
                ))
            elif op == OP_SHUTDOWN:
                reply.add(ST_BYE)
                running = False
            else:
                raise ValueError(f"shard {shard_id}: unknown op {op}")
            ops += 1
        busy_s += perf_counter() - t0
        batches += 1
        try:
            responses.send_bytes(bytes(reply.finish()))
        except (BrokenPipeError, OSError):
            break
    responses.close()
    requests.close()


#: The additive :meth:`AdaptiveCompressor.selection_snapshot` counters.
_SELECTOR_COUNTERS = (
    "pages", "result_hits", "memo_hits", "trials", "raw_fallbacks",
)


def sum_selection(snapshots: Iterable[Mapping[str, object]]) -> Dict:
    """Sum selector counters over slots (or over shards' sums).

    Each slot owns its compressor and sees its operations in stream
    order, so the sum is the same at every shard count.
    """
    total: Dict = {name: 0 for name in _SELECTOR_COUNTERS}
    chosen: Counter = Counter()
    for snapshot in snapshots:
        for name in _SELECTOR_COUNTERS:
            total[name] += snapshot[name]
        chosen.update(snapshot["chosen"])
    total["chosen"] = dict(sorted(chosen.items()))
    return total


def _stats_blob(config: ServiceConfig, shard_id: int,
                slots: Dict[int, VslotStore], ops: int, batches: int,
                busy_s: float) -> bytes:
    """The JSON payload answering :data:`OP_STATS`."""
    from ..compression.sampler import shared_results_size

    ledgers = merge_ledgers(
        slots[vslot].ledgers_by_name() for vslot in sorted(slots)
    )
    payload = {
        "shard": shard_id,
        "vslots": len(slots),
        "ops": ops,
        "batches": batches,
        "busy_seconds": round(busy_s, 6),
        "resident_entries": sum(
            store.resident_entries() for store in slots.values()
        ),
        "resident_bytes": sum(
            store.resident_bytes() for store in slots.values()
        ),
        "kernel_cache_entries": shared_results_size(),
        "ledgers": ledgers,
    }
    # Trials per pass from the live service; only a selecting
    # compressor ("adaptive") keeps these counters.
    selections = [
        store.compressor.selection_snapshot()
        for store in slots.values()
        if hasattr(store.compressor, "selection_snapshot")
    ]
    if selections:
        payload["selector"] = sum_selection(selections)
    return json.dumps(payload, sort_keys=True).encode("utf-8")


class ShardHandle:
    """Parent-side endpoint of one shard worker.

    Owns the request/response pipes, the worker :class:`mp.Process`,
    and the blocking reader thread.  The server supplies ``on_frame``
    and ``on_death`` callbacks that are invoked *on the reader thread* —
    the server wraps them in ``call_soon_threadsafe``.
    """

    def __init__(self, config: ServiceConfig, shard_id: int):
        ctx = mp.get_context()
        req_r, req_w = ctx.Pipe(duplex=False)
        resp_r, resp_w = ctx.Pipe(duplex=False)
        self.shard_id = shard_id
        self.process = ctx.Process(
            target=shard_main,
            args=(config, shard_id, req_r, resp_w),
            name=f"ccache-shard-{shard_id}",
            daemon=True,
        )
        self.process.start()
        # Close the child's ends in the parent so EOF propagates when
        # the child exits.
        req_r.close()
        resp_w.close()
        self._requests = req_w
        self._responses = resp_r
        self._reader: Optional[threading.Thread] = None
        self.dead = False

    def start_reader(
        self,
        on_frame: Callable[[bytes], None],
        on_death: Callable[[], None],
    ) -> None:
        """Spawn the blocking reader thread (daemon)."""

        def _read_loop() -> None:
            responses = self._responses
            while True:
                try:
                    frame = responses.recv_bytes()
                except (EOFError, OSError):
                    on_death()
                    return
                on_frame(frame)

        self._reader = threading.Thread(
            target=_read_loop,
            name=f"ccache-shard-{self.shard_id}-reader",
            daemon=True,
        )
        self._reader.start()

    def send(self, frame: bytes) -> None:
        """Blocking frame write (run it in an executor thread)."""
        self._requests.send_bytes(frame)

    def close(self, join_timeout: float = 5.0) -> None:
        """Close pipes and reap the worker."""
        for conn in (self._requests, self._responses):
            try:
                conn.close()
            except OSError:
                pass
        if self.process.is_alive():
            self.process.join(timeout=join_timeout)
            if self.process.is_alive():
                self.process.terminate()
                self.process.join(timeout=join_timeout)
        if self._reader is not None and self._reader.is_alive():
            self._reader.join(timeout=join_timeout)
