"""Shard worker processes and their parent-side handles.

A shard is one OS process owning a disjoint set of virtual slots.  The
worker runs a single-threaded loop: receive one request frame (a whole
batch — one ``recv``), apply every record in order to the owning
:class:`~repro.service.store.VslotStore`, send one response frame.
Because slots are disjoint across shards and each frame is applied
sequentially, the per-slot operation order equals the front-end's
per-slot submission order — the other half of the determinism contract.

Parent and worker talk over one ``socketpair``; both ends speak
:class:`FrameSocket`, a ``u32`` length prefix (little-endian, the one
``serve_tcp`` uses) ahead of every frame.  The worker's end blocks.  The
parent's end (:class:`ShardHandle`) never does: it is registered with
the service's event loop, which completes every response frame one
non-blocking read brings in and parks whatever part of a request frame
the socket will not take behind a writer callback.  No threads.
A worker death surfaces on the loop as EOF or a write error, which the
server translates into :class:`~repro.service.errors.ShardDeadError`
for every in-flight and future request — requests fail fast, they never
hang.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing as mp
import socket
import sys
import time
from collections import Counter
from typing import Callable, Dict, Iterable, Mapping, Optional, Set

from ..compression.base import create
from ..compression.sampler import shared_finished_size, shared_results_size
from ..counters import proc_status_kb
from .config import ServiceConfig
from .errors import ProtocolError
from .ledger import merge_ledgers
from .protocol import (
    MAX_FRAME_BYTES,
    OP_DELETE,
    OP_GET,
    OP_PUT,
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


class FrameSocket:
    """Length-prefixed frames over one end of a stream ``socketpair``.

    Works on a blocking socket (the worker) and a non-blocking one (the
    front end): a call does what the socket allows and keeps what is
    left — received bytes past the last whole frame, the unsent tail of
    a written one — for the next call.
    """

    def __init__(self, sock: socket.socket):
        self.sock = sock
        #: received bytes not yet returned as a frame.
        self._spill = bytearray()
        #: bytes accepted by :meth:`send_frame` the socket has not taken.
        self.unsent = bytearray()

    def recv_frame(self) -> Optional[bytearray]:
        """The next whole frame, a buffer of its own: one already
        received, else what 64-KB ``recv`` calls bring in.

        ``None`` when a non-blocking socket has no more to give yet;
        raises :class:`EOFError` once the peer has closed, and
        :class:`ProtocolError` — before any buffer of that size is made
        — on a length prefix above :data:`MAX_FRAME_BYTES`, after which
        the stream has lost its framing and the caller must give the
        socket up.
        """
        frame = self.buffered_frame()
        while frame is None:
            try:
                chunk = self.sock.recv(64 << 10)
            except BlockingIOError:
                return None
            if not chunk:
                raise EOFError("peer closed the shard socket")
            self._spill += chunk
            frame = self.buffered_frame()
        return frame

    def buffered_frame(self) -> Optional[bytearray]:
        """The next frame if all of it is received; never reads."""
        spill = self._spill
        if len(spill) < 4:
            return None
        size = int.from_bytes(spill[:4], "little")
        if size > MAX_FRAME_BYTES:
            raise ProtocolError(
                f"frame prefix {size} exceeds {MAX_FRAME_BYTES}"
            )
        if len(spill) < 4 + size:
            return None
        frame = spill[4:4 + size]
        del spill[:4 + size]
        return frame

    def send_frame(self, frame) -> bool:
        """Write ``frame`` behind its prefix; ``True`` if all of it left.

        On ``False`` the rest is parked, and so is every later frame
        until :meth:`flush` returns ``True`` — frames never interleave
        and leave in the order they were given.
        """
        header = len(frame).to_bytes(4, "little")
        unsent = self.unsent
        sent = 0
        if not unsent:
            try:
                sent = self.sock.sendmsg((header, frame))
            except BlockingIOError:
                pass
            if sent == len(header) + len(frame):
                return True
        unsent += header
        unsent += frame
        del unsent[:sent]
        return False

    def flush(self) -> bool:
        """Write parked bytes; ``True`` once none are left."""
        unsent = self.unsent
        try:
            sent = self.sock.send(unsent)
        except BlockingIOError:
            return False
        del unsent[:sent]
        return not unsent


def shard_main(config: ServiceConfig, shard_id: int,
               sock: socket.socket) -> None:
    """Worker-process entry point (module-level: spawn-safe).

    Args:
        config: the full service geometry (slots are derived from it).
        shard_id: this worker's index in ``range(config.shards)``.
        sock: this worker's (blocking) end of the shard socketpair.
    """
    # What the worker holds before it builds anything (a forked one: the
    # front end's pages); its stats report the peak above this.
    rss_at_start = proc_status_kb("VmRSS")
    modules_at_start = set(sys.modules)
    conn = FrameSocket(sock)
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
            frame = conn.recv_frame()
        except (EOFError, OSError, ProtocolError):
            break  # front end gone or its stream unframed: nothing to serve
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
                    config, shard_id, slots, ops, batches, busy_s,
                    rss_at_start, modules_at_start,
                ))
            else:  # OP_SHUTDOWN: iter_requests admits no other op
                reply.add(ST_BYE)
                running = False
            ops += 1
        busy_s += perf_counter() - t0
        batches += 1
        try:
            sent = conn.send_frame(reply.finish())
            while not sent:
                sent = conn.flush()
        except OSError:
            break
    sock.close()


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
                busy_s: float, rss_at_start: Optional[int],
                modules_at_start: Set[str]) -> bytes:
    """The JSON payload answering :data:`OP_STATS`.

    ``peak_rss_growth_mb`` is the worker's own memory: its peak resident
    set (``VmHWM``) above what it held when it started, ``None`` where
    there is no ``/proc``.  ``late_imports`` lists the ``repro`` modules
    the worker imported after it started; a forked worker inherits its
    modules from the front end (:class:`ShardHandle`), so it reads
    ``[]``.  ``kernel_cache_entries`` counts both process-wide result
    stores: per-kernel results and the selector's finished ones.
    """
    ledgers = merge_ledgers(
        slots[vslot].ledgers_by_name() for vslot in sorted(slots)
    )
    peak = proc_status_kb("VmHWM")
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
        "kernel_cache_entries": (
            shared_results_size() + shared_finished_size()
        ),
        "peak_rss_growth_mb": (
            None if peak is None or rss_at_start is None
            else round((peak - rss_at_start) / 1024, 2)
        ),
        "late_imports": sorted(
            name for name in sys.modules
            if name.startswith("repro") and name not in modules_at_start
        ),
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

    Owns the worker :class:`mp.Process` and the non-blocking end of its
    socketpair, registered with the service's event loop: ``on_frame``
    runs on the loop for every response frame and ``on_death`` once,
    with the EOF or I/O error that ended it.  Nothing here blocks the
    loop and nothing runs off it.
    """

    def __init__(
        self,
        config: ServiceConfig,
        shard_id: int,
        loop: asyncio.AbstractEventLoop,
        on_frame: Callable[[bytearray], None],
        on_death: Callable[[Exception], None],
    ):
        # Build one compressor here, in the parent, so the kernel modules
        # (and numpy) a worker's stores need are imported once, before
        # the fork, instead of by every worker after it.
        create(config.compressor)
        ctx = mp.get_context()
        ours, theirs = socket.socketpair()
        self.shard_id = shard_id
        self.process = ctx.Process(
            target=shard_main,
            args=(config, shard_id, theirs),
            name=f"ccache-shard-{shard_id}",
            daemon=True,
        )
        try:
            self.process.start()
        finally:
            # Close the child's end in the parent so EOF propagates
            # when the child exits.
            theirs.close()
        ours.setblocking(False)
        self._conn = FrameSocket(ours)
        self._loop = loop
        self._on_frame = on_frame
        self._on_death = on_death
        self.dead = False
        loop.add_reader(ours, self._readable)

    def _readable(self) -> None:
        # Every whole frame read, not one: the loop wakes again for
        # bytes still in the socket, never for those already read.
        try:
            frame = self._conn.recv_frame()
            while frame is not None and not self.dead:
                self._on_frame(frame)
                frame = self._conn.buffered_frame()
        except (EOFError, OSError, ProtocolError) as exc:
            self._on_death(exc)

    def send(self, frame) -> None:
        """Write one request frame without ever blocking the loop."""
        armed = bool(self._conn.unsent)  # the writer drains what is parked
        try:
            if self._conn.send_frame(frame) or armed:
                return
        except OSError as exc:
            self._on_death(exc)
            return
        self._loop.add_writer(self._conn.sock, self._writable)

    def _writable(self) -> None:
        try:
            if not self._conn.flush():
                return
        except OSError as exc:
            self._on_death(exc)
            return
        self._loop.remove_writer(self._conn.sock)

    def detach(self) -> None:
        """Leave the loop and close the socket (idempotent)."""
        sock = self._conn.sock
        if sock.fileno() >= 0:
            self._loop.remove_reader(sock)
            self._loop.remove_writer(sock)
            sock.close()

    def close(self, join_timeout: float = 5.0) -> None:
        """Close the socket and reap the worker."""
        self.detach()
        if self.process.is_alive():
            self.process.join(timeout=join_timeout)
            if self.process.is_alive():
                self.process.terminate()
                self.process.join(timeout=join_timeout)
        self.process.close()  # its sentinel descriptor
