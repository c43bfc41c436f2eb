"""The asyncio front-end: batching, backpressure, and shard routing.

:class:`CacheService` is the in-process server.  :meth:`submit` stages
an operation on its shard's list, and the first one staged in a loop
tick schedules one ``call_soon`` flush that sends everything staged, up
to ``batch_ops`` operations per request frame.  Every shard's socket is
registered with the same event loop
(:class:`~repro.service.shard.ShardHandle`): request frames are written
without blocking it, response frames are reassembled on it and complete
their futures there, and a shard's death is noticed there.  The service
starts no threads and no tasks.  Request and response frames match
one-to-one in FIFO order, so completion is a deque pop — no sequence
numbers on the wire.

Flow control is two-layered:

* **Backpressure** — a per-shard count of free slots bounds staged +
  in-flight operations at ``max_pending``; a slot is held until the
  shard answers (or fails) its operation, even if the caller was
  cancelled.  ``wait=True`` submissions park in FIFO order;
  ``wait=False`` submissions get an immediate
  :class:`BackpressureError` (``retryable=True``) instead.
* **Admission** — an optional per-tenant in-flight cap
  (``tenant_inflight``) keeps one hot tenant from monopolizing every
  shard; same wait/raise split.

Determinism note: staging is FIFO and each shard applies frames
sequentially, so per-virtual-slot operation order equals submission
order.  A client that awaits each of its own submissions (the traffic
generator partitions clients by virtual slot) therefore produces the
same per-slot op sequence under any shard count, pipelining depth, or
batch coalescing — which is what pins the ledgers.

``serve_tcp`` wraps a :class:`CacheService` in a TCP listener speaking
length-prefixed frames of the same wire format, for `repro serve`.
"""

from __future__ import annotations

import asyncio
import json
import logging
from collections import deque
from functools import partial
from typing import Awaitable, Deque, Dict, List, Optional, Tuple, Union

from .config import ServiceConfig
from .errors import BackpressureError, ProtocolError, ShardDeadError
from .ledger import merge_ledgers
from .protocol import (
    MAX_FRAME_BYTES,
    OP_DELETE,
    OP_GET,
    OP_PUT,
    OP_SHUTDOWN,
    OP_STATS,
    ST_BYE,
    ST_DELETED,
    ST_HIT,
    ST_PROTOCOL_ERROR,
    ST_QUOTA_DENIED,
    ST_STATS,
    ST_STORED,
    RequestBatch,
    ResponseBatch,
    iter_requests,
    parse_responses,
)
from .shard import ShardHandle

log = logging.getLogger("repro.service")

#: staged item: (op, tenant, vslot, key, payload, future)
_Item = Tuple[int, int, int, int, Optional[object], "asyncio.Future"]


class CacheService:
    """Hash-sharded compressed page cache behind an asyncio API.

    Usage::

        service = CacheService(config)
        await service.start()
        try:
            await service.put("default", key, page)
            page = await service.get("default", key)
        finally:
            await service.stop()
    """

    def __init__(self, config: ServiceConfig):
        self.config = config
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._shards: List[ShardHandle] = []
        self._staged: List[List[_Item]] = []
        self._inflight: List[Deque[List["asyncio.Future"]]] = []
        #: per shard: free ``max_pending`` slots; parked submissions.
        self._free: List[int] = []
        self._waiters: List[Deque["asyncio.Future"]] = []
        self._tenant_gates: Dict[int, asyncio.Semaphore] = {}
        self._started = False
        self._stopping = False
        #: batches dispatched per shard (front-end view, for stats()).
        self.batches_sent: List[int] = []

    # -- lifecycle ----------------------------------------------------

    async def start(self) -> None:
        """Spawn the shard workers."""
        if self._started:
            raise RuntimeError("service already started")
        config = self.config
        loop = self._loop = asyncio.get_running_loop()
        if config.tenant_inflight is not None:
            self._tenant_gates = {
                i: asyncio.Semaphore(config.tenant_inflight)
                for i in range(len(config.tenants))
            }
        for shard_id in range(config.shards):
            self._staged.append([])
            self._inflight.append(deque())
            self._free.append(config.max_pending)
            self._waiters.append(deque())
            self.batches_sent.append(0)
            handle = ShardHandle(
                config, shard_id, loop,
                on_frame=partial(self._on_frame, shard_id),
                on_death=partial(self._on_death, shard_id),
            )
            self._shards.append(handle)
            log.info(
                "shard %d started: pid %d, %d vslots", shard_id,
                handle.process.pid, len(config.slots_of_shard(shard_id)),
            )
        self._started = True

    async def stop(self) -> None:
        """Graceful shutdown: drain shards, reap workers."""
        if not self._started or self._stopping:
            return
        self._stopping = True
        for shard_id, handle in enumerate(self._shards):
            if not handle.dead:
                try:
                    await self._submit_to_shard(
                        shard_id, OP_SHUTDOWN, 0,
                        self._control_vslot(shard_id), 0, None, wait=True,
                    )
                except (ShardDeadError, ProtocolError):
                    continue  # already gone; reaped below
                log.info(
                    "shard %d stopped: pid %d, %d vslots", shard_id,
                    handle.process.pid,
                    len(self.config.slots_of_shard(shard_id)),
                )
        for handle in self._shards:
            handle.close()
        self._started = False

    # -- public data-plane API ----------------------------------------

    async def get(
        self, tenant: Union[int, str], key: int, wait: bool = True
    ) -> Optional[memoryview]:
        """Fetch a page; ``None`` on miss.  Zero-copy: the returned
        memoryview aliases the response frame."""
        status, payload = await self.submit(
            OP_GET, tenant, key, None, wait=wait
        )
        return payload if status == ST_HIT else None

    async def put(
        self,
        tenant: Union[int, str],
        key: int,
        page: object,
        wait: bool = True,
    ) -> bool:
        """Store a page (any buffer-protocol object).  ``False`` means
        the tenant's quota denied it."""
        status, _ = await self.submit(OP_PUT, tenant, key, page, wait=wait)
        if status == ST_STORED:
            return True
        if status == ST_QUOTA_DENIED:
            return False
        raise ProtocolError(f"unexpected PUT status {status}")

    async def delete(
        self, tenant: Union[int, str], key: int, wait: bool = True
    ) -> bool:
        """Remove a page; ``False`` if it was not resident."""
        status, _ = await self.submit(
            OP_DELETE, tenant, key, None, wait=wait
        )
        return status == ST_DELETED

    async def submit(
        self,
        op: int,
        tenant: Union[int, str],
        key: int,
        payload: Optional[object],
        wait: bool = True,
    ) -> Tuple[int, Optional[memoryview]]:
        """Route one operation; returns ``(status, payload view)``.

        ``wait=False`` turns both flow-control gates into immediate
        :class:`BackpressureError` (retryable) instead of queueing.
        """
        tenant_index = (
            tenant if isinstance(tenant, int)
            else self.config.tenant_index(tenant)
        )
        vslot = self.config.vslot_of(key)
        shard_id = self.config.shard_of_vslot(vslot)
        gate = self._tenant_gates.get(tenant_index)
        if gate is not None:
            if wait:
                await gate.acquire()
            elif gate.locked():
                raise BackpressureError(
                    f"tenant {tenant_index} at in-flight cap "
                    f"({self.config.tenant_inflight})"
                )
            else:
                await gate.acquire()
        try:
            return await self._submit_to_shard(
                shard_id, op, tenant_index, vslot, key, payload, wait
            )
        finally:
            if gate is not None:
                gate.release()

    async def stats(self) -> Dict[str, object]:
        """Merged per-tenant ledgers plus per-shard counters."""
        replies = await asyncio.gather(*(
            self._submit_to_shard(
                shard_id, OP_STATS, 0,
                self._control_vslot(shard_id), 0, None, wait=True,
            )
            for shard_id in range(self.config.shards)
            if not self._shards[shard_id].dead
        ))
        shards = []
        for status, payload in replies:
            if status != ST_STATS:
                raise ProtocolError(f"unexpected STATS status {status}")
            shards.append(json.loads(bytes(payload).decode("utf-8")))
        ledgers = merge_ledgers(shard["ledgers"] for shard in shards)
        return {
            "config": self.config.describe(),
            "shards": shards,
            "ledgers": ledgers,
        }

    def live_shards(self) -> int:
        """Shards still serving (for health checks and tests)."""
        return sum(1 for handle in self._shards if not handle.dead)

    # -- internals ----------------------------------------------------

    def _control_vslot(self, shard_id: int) -> int:
        """Any vslot owned by the shard (control ops need a valid one)."""
        return self.config.slots_of_shard(shard_id)[0]

    def _submit_to_shard(
        self,
        shard_id: int,
        op: int,
        tenant: int,
        vslot: int,
        key: int,
        payload: Optional[object],
        wait: bool,
    ) -> Awaitable[Tuple[int, Optional[memoryview]]]:
        """Take a slot and stage the operation: its future, or where no
        slot is free and ``wait`` is set, the coroutine that parks."""
        if not self._started:
            raise RuntimeError("service not started")
        if self._shards[shard_id].dead:
            raise ShardDeadError(f"shard {shard_id} is dead")
        item = (op, tenant, vslot, key, payload, self._loop.create_future())
        if self._free[shard_id]:
            self._free[shard_id] -= 1
            return self._stage(shard_id, item)
        if not wait:
            raise BackpressureError(
                f"shard {shard_id} at max_pending "
                f"({self.config.max_pending})"
            )
        return self._park(shard_id, item)

    async def _park(self, shard_id: int, item: _Item):
        """Wait for a slot :meth:`_release` hands over, then stage."""
        waiter: "asyncio.Future" = self._loop.create_future()
        self._waiters[shard_id].append(waiter)
        try:
            await waiter
        except asyncio.CancelledError:
            if not waiter.cancelled():  # handed a slot, then cancelled
                self._release(shard_id, 1)
            raise
        # The shard may have died while we were parked.
        if self._shards[shard_id].dead:
            raise ShardDeadError(f"shard {shard_id} is dead")
        return await self._stage(shard_id, item)

    def _stage(self, shard_id: int, item: _Item) -> "asyncio.Future":
        staged = self._staged[shard_id]
        if not staged:
            self._loop.call_soon(self._flush, shard_id)
        staged.append(item)
        return item[5]

    def _flush(self, shard_id: int) -> None:
        """Send what is staged, ``batch_ops`` per frame, in the order the
        batches join the in-flight deque (the FIFO matching invariant).
        A failed write calls ``_on_death``, which fails what is left."""
        staged = self._staged[shard_id]
        handle = self._shards[shard_id]
        batch_ops = self.config.batch_ops
        while staged and not handle.dead:
            batch = RequestBatch()
            futures: List["asyncio.Future"] = []
            for op, tenant, vslot, key, payload, future in staged[:batch_ops]:
                batch.add(op, tenant, vslot, key, payload)
                futures.append(future)
            del staged[:batch_ops]
            self._inflight[shard_id].append(futures)
            self.batches_sent[shard_id] += 1
            handle.send(batch.finish())

    def _release(self, shard_id: int, count: int) -> None:
        """Hand ``count`` answered or failed operations' slots to the
        oldest parked submissions, the rest to the free count."""
        waiters = self._waiters[shard_id]
        while count and waiters:
            waiter = waiters.popleft()
            if not waiter.done():  # else cancelled while parked
                waiter.set_result(None)
                count -= 1
        self._free[shard_id] += count

    def _on_frame(self, shard_id: int, frame: bytearray) -> None:
        """Completion of one response frame (FIFO match)."""
        inflight = self._inflight[shard_id]
        futures = inflight[0] if inflight else ()
        try:
            records = parse_responses(memoryview(frame))
            if not inflight or len(records) != len(futures):
                raise ProtocolError(
                    f"shard {shard_id}: {len(records)} responses for "
                    f"{len(futures)} requests"
                )
        except ProtocolError as exc:
            # Nothing after a frame we cannot account for can be
            # matched to its requests: the shard is lost.
            self._on_death(shard_id, exc)
            return
        inflight.popleft()
        for future, (status, payload) in zip(futures, records):
            if not future.done():
                future.set_result(
                    (status, payload if payload.nbytes else None)
                )
        self._release(shard_id, len(futures))

    def _on_death(self, shard_id: int, cause: Exception) -> None:
        """Fail everything touching a lost shard; never deadlock.

        ``cause`` is the EOF or I/O error on the shard's socket, or the
        :class:`ProtocolError` of a response frame that cannot be
        matched — which is then what the failed operations raise.
        Parked submissions wake to the dead shard and raise
        :class:`ShardDeadError`.
        """
        handle = self._shards[shard_id]
        if handle.dead:
            return
        handle.dead = True
        handle.detach()
        exc = (cause if isinstance(cause, ProtocolError)
               else ShardDeadError(f"shard {shard_id} died"))
        inflight = self._inflight[shard_id]
        staged = self._staged[shard_id]
        batches = len(inflight)
        ops = len(staged)
        while inflight:
            futures = inflight.popleft()
            ops += len(futures)
            self._fail_futures(shard_id, futures, exc)
        self._fail_futures(shard_id, [item[5] for item in staged], exc)
        staged.clear()
        self._release(shard_id, len(self._waiters[shard_id]))
        # EOF after ST_BYE, nothing outstanding, is the clean epilogue.
        if ops or not self._stopping:
            # A worker that lost track of its frames may still be up.
            handle.process.terminate()
            log.warning(
                "shard %d died (%s): failed %d in-flight batches, %d ops",
                shard_id, cause, batches, ops,
            )

    def _fail_futures(self, shard_id: int, futures, exc: Exception) -> None:
        for future in futures:
            if not future.done():
                future.set_exception(exc)
        self._release(shard_id, len(futures))


# -- TCP front-end ---------------------------------------------------


async def serve_tcp(
    service: CacheService,
    host: str = "127.0.0.1",
    port: int = 0,
    max_frame_bytes: int = MAX_FRAME_BYTES,
    idle_timeout: Optional[float] = None,
) -> Tuple["asyncio.AbstractServer", "asyncio.Event"]:
    """Expose a started service over TCP (length-prefixed frames).

    The wire format is a u32 frame length followed by a request frame
    exactly as :mod:`repro.service.protocol` defines it; the reply is a
    u32-prefixed response frame.  Client-supplied vslot fields are
    ignored — routing is always recomputed from the key, so a confused
    client cannot corrupt another slot.  Returns the server object and
    a *stopped* event that an :data:`OP_SHUTDOWN` record sets.

    Malformed input never wedges a connection: an oversized length
    prefix (> ``max_frame_bytes``) or a frame :func:`iter_requests`
    rejects draws a single :data:`ST_PROTOCOL_ERROR` response (message
    as payload) and the connection closes, as does a record naming a
    tenant the service does not have.  A frame is all or nothing: it is
    parsed and checked whole before any record is applied, so a
    rejected one changed nothing.  A connection idle for more
    than ``idle_timeout`` seconds between frames is closed silently
    (``None`` disables the timeout).
    """
    stopped = asyncio.Event()
    tenants = len(service.config.tenants)

    async def _protocol_error(writer: "asyncio.StreamWriter",
                              message: str) -> None:
        reply = ResponseBatch()
        reply.add(ST_PROTOCOL_ERROR, message.encode("utf-8"))
        out = reply.finish()
        writer.write(len(out).to_bytes(4, "little") + out)
        try:
            await writer.drain()
        except ConnectionError:
            pass

    async def _handle(reader: "asyncio.StreamReader",
                      writer: "asyncio.StreamWriter") -> None:
        try:
            while True:
                try:
                    header = await asyncio.wait_for(
                        reader.readexactly(4), timeout=idle_timeout
                    )
                except (asyncio.TimeoutError, asyncio.IncompleteReadError,
                        ConnectionError):
                    return
                length = int.from_bytes(header, "little")
                if length > max_frame_bytes:
                    await _protocol_error(
                        writer,
                        f"frame length {length} exceeds "
                        f"{max_frame_bytes}",
                    )
                    return
                try:
                    frame = await reader.readexactly(length)
                except (asyncio.IncompleteReadError, ConnectionError):
                    return
                reply = ResponseBatch()
                shutdown = False
                try:
                    # The whole frame is checked before its first record
                    # is applied: a frame rejected by its last record
                    # must leave nothing of its first behind.
                    records = list(iter_requests(memoryview(frame)))
                    for _op, tenant, _vslot, _key, _payload in records:
                        if tenant >= tenants:
                            raise ProtocolError(f"unknown tenant {tenant}")
                    for op, tenant, _vslot, key, payload in records:
                        if op == OP_SHUTDOWN:
                            reply.add(ST_BYE)
                            shutdown = True
                        elif op == OP_STATS:
                            blob = json.dumps(
                                await service.stats(), sort_keys=True
                            ).encode("utf-8")
                            reply.add(ST_STATS, blob)
                        else:
                            status, view = await service.submit(
                                op, tenant, key,
                                bytes(payload) if payload.nbytes else None,
                            )
                            reply.add(status, view)
                except ProtocolError as exc:
                    # Partial replies are useless to a client that sent
                    # a frame it cannot account for; answer with the
                    # error alone and drop the connection.
                    await _protocol_error(writer, str(exc))
                    return
                out = reply.finish()
                writer.write(len(out).to_bytes(4, "little") + out)
                await writer.drain()
                if shutdown:
                    stopped.set()
                    return
        finally:
            writer.close()

    server = await asyncio.start_server(_handle, host, port)
    return server, stopped
