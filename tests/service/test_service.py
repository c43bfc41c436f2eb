"""End-to-end CacheService tests: correctness, shard-count invariance,
backpressure, and failure isolation.

No pytest-asyncio in the toolchain: each test drives its coroutine with
``asyncio.run``, which also guarantees a fresh loop (and fresh shard
processes) per test.
"""

import asyncio
import contextlib
import gc
import logging
import multiprocessing as mp
import os
import threading
import time
import warnings
from itertools import islice

import pytest

from repro.service import shard as shard_module
from repro.service import (
    BackpressureError,
    CacheService,
    ServiceConfig,
    ShardDeadError,
    TenantSpec,
)
from repro.service.bench import run_service_point, service_spec
from repro.service.errors import ProtocolError
from repro.service.protocol import (
    OP_GET,
    OP_PUT,
    OP_SHUTDOWN,
    ST_BYE,
    ST_HIT,
    ST_MISS,
    ST_PROTOCOL_ERROR,
    ST_STORED,
    ResponseBatch,
    iter_requests,
    iter_responses,
    pack_requests,
)
from repro.service.server import serve_tcp
from repro.service.shard import FrameSocket, shard_main

PAGE = 1024


def make_config(**overrides):
    defaults = dict(
        shards=2,
        vslots=8,
        tenants=(TenantSpec("default"),),
        tier_bytes=(64 << 10,),
        compressor="null",
        page_size=PAGE,
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def keys_on_shard(config, shard, count):
    keys = (k for k in range(100000) if config.shard_of(k) == shard)
    return list(islice(keys, count))


def key_on_shard(config, shard):
    return keys_on_shard(config, shard, 1)[0]


@contextlib.asynccontextmanager
async def tcp_service(config, **kwargs):
    """A started service behind :func:`serve_tcp`; yields the service
    and an async ``connect()`` returning a new ``(reader, writer)``."""
    service = CacheService(config)
    await service.start()
    server, _stopped = await serve_tcp(service, port=0, **kwargs)
    port = server.sockets[0].getsockname()[1]
    writers = []

    async def connect():
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writers.append(writer)
        return reader, writer

    try:
        yield service, connect
    finally:
        for writer in writers:
            writer.close()
        server.close()
        await server.wait_closed()
        await service.stop()


async def read_reply(reader):
    """One length-prefixed response frame, as ``(status, view)`` pairs."""
    length = int.from_bytes(await reader.readexactly(4), "little")
    reply = await reader.readexactly(length)
    return list(iter_responses(memoryview(reply)))


def short_worker(config, shard_id, sock):
    """A shard that answers every request frame one record short."""
    conn = FrameSocket(sock)
    while True:
        try:
            frame = conn.recv_frame()
        except EOFError:
            break
        reply = ResponseBatch()
        for _ in list(iter_requests(memoryview(frame)))[1:]:
            reply.add(ST_MISS)
        conn.send_frame(reply.finish())
    sock.close()


class TestRoundTrip:
    def test_put_get_delete(self):
        async def scenario():
            service = CacheService(make_config())
            await service.start()
            try:
                page = bytes([7]) * PAGE
                assert await service.put("default", 123, page)
                got = await service.get("default", 123)
                assert bytes(got) == page
                assert await service.get("default", 456) is None
                assert await service.delete("default", 123)
                assert not await service.delete("default", 123)
                assert await service.get("default", 123) is None
            finally:
                await service.stop()

        asyncio.run(scenario())

    def test_keys_spread_over_both_shards(self):
        async def scenario():
            config = make_config()
            service = CacheService(config)
            await service.start()
            try:
                for key in range(40):
                    assert await service.put(
                        "default", key, key.to_bytes(2, "little") * 16
                    )
                for key in range(40):
                    got = await service.get("default", key)
                    assert bytes(got) == key.to_bytes(2, "little") * 16
                stats = await service.stats()
                per_shard_ops = [s["ops"] for s in stats["shards"]]
                assert all(ops > 0 for ops in per_shard_ops)
                # "null" selects nothing, so there is nothing to report.
                assert all("selector" not in s for s in stats["shards"])
                ledger = stats["ledgers"]["default"]
                assert ledger["stores"] == 40
                assert ledger["hits"] + ledger["cold_hits"] == 40
            finally:
                await service.stop()

        asyncio.run(scenario())

    def test_quota_denial_surfaces_as_false(self):
        async def scenario():
            # Per-slot quota (800 / 8 = 100 bytes) below one stored page.
            config = make_config(
                tenants=(TenantSpec("capped", quota_bytes=800),)
            )
            service = CacheService(config)
            await service.start()
            try:
                assert not await service.put("capped", 1, b"x" * PAGE)
                stats = await service.stats()
                assert stats["ledgers"]["capped"]["quota_denials"] == 1
            finally:
                await service.stop()

        asyncio.run(scenario())


class TestShardCountInvariance:
    @pytest.fixture(scope="class")
    def runs(self):
        """One seeded stream (Zipf mix, two tenants, one quota-bound,
        adaptive compressor) replayed at 1, 2 and 4 shard processes."""
        tenants = [
            {"name": "alpha", "weight": 3.0, "keys": 3000,
             "quota_bytes": None},
            {"name": "beta", "weight": 1.0, "keys": 60,
             "quota_bytes": 192 << 10},
        ]
        return {
            shards: run_service_point(service_spec(
                shards, ops=600, clients=4, tenants=tenants))
            for shards in (1, 2, 4)
        }

    def test_ledgers_identical_at_1_and_4_shards(self, runs):
        """The headline determinism contract, digest-pinned.

        The same traffic against 1 and 4 shard processes must yield
        byte-identical merged ledgers — and therefore equal digests and
        per-status counts.
        """
        assert runs[1]["ledger_digest"] == runs[4]["ledger_digest"]
        assert runs[1]["ledgers"] == runs[4]["ledgers"]
        assert runs[1]["statuses"] == runs[4]["statuses"]
        # The traffic actually exercised the machinery (hits, stores,
        # quota denials; slot-level eviction paths are pinned by
        # test_store.py).
        beta = runs[1]["ledgers"]["beta"]
        assert beta["quota_denials"] > 0 and beta["stores"] > 0
        assert runs[1]["statuses"].get("hit", 0) > 0

    def test_selector_sum_identical_at_1_2_and_4_shards(self, runs):
        """Slots own their compressors, so the selector counters summed
        over a shard's slots, then over shards, do not depend on the
        shard count — and reporting them moves no ledger."""
        selector = runs[1]["selector"]
        for shards in (2, 4):
            assert runs[shards]["selector"] == selector
            assert runs[shards]["ledger_digest"] == runs[1]["ledger_digest"]
        # Recorded before the stats blob carried the selector.
        assert runs[1]["ledger_digest"] == (
            "9b8dd28c9643b11192e1bbb83d15b47d"
            "a28382ae672157631a182b6b22e26260"
        )
        assert selector["trials"] > 0
        assert (selector["result_hits"] + selector["memo_hits"]
                + selector["trials"]) == selector["pages"]
        assert (sum(selector["chosen"].values())
                + selector["raw_fallbacks"]) == selector["pages"]


class TestFlowControl:
    def test_queue_full_returns_retryable_error(self):
        async def scenario():
            config = make_config(
                shards=1, batch_ops=1, max_pending=1,
                debug_op_delay_s=0.2,
            )
            service = CacheService(config)
            await service.start()
            try:
                slow = asyncio.ensure_future(
                    service.put("default", 1, b"a" * PAGE)
                )
                await asyncio.sleep(0.05)  # op now holds the one slot
                with pytest.raises(BackpressureError) as info:
                    await service.put("default", 2, b"b" * PAGE,
                                      wait=False)
                assert info.value.retryable
                assert await slow  # the in-flight op still completes
                # And a waiting submission parks instead of raising.
                assert await service.put("default", 2, b"b" * PAGE)
            finally:
                await service.stop()

        asyncio.run(scenario())

    def test_bench_clients_retry_backpressure(self):
        """The bench absorbs retryable rejections instead of failing.

        One shard with a single pending slot, a per-op stall, and four
        concurrent clients guarantees admission rejections; every op
        must still land (per-slot order preserved) and the retry count
        must surface in the replay metrics.
        """
        from repro.service.bench import replay_traffic
        from repro.workloads.traffic import TenantTraffic, TrafficSpec

        async def scenario():
            config = make_config(
                shards=1, batch_ops=1, max_pending=1,
                debug_op_delay_s=0.005,
            )
            traffic = TrafficSpec(
                ops=80, seed=11, page_size=PAGE,
                tenants=(TenantTraffic("default", keys=40),),
            )
            result = await replay_traffic(config, traffic, clients=4)
            retries = result["backpressure_retries"]
            assert retries["total"] > 0
            assert retries["by_tenant"] == {"default": retries["total"]}
            # Retried ops were eventually accepted: every op answered.
            assert sum(result["statuses"].values()) == 80
            assert "backpressure" not in result["statuses"]

        asyncio.run(scenario())

    def test_paced_client_counts_time_queued_behind_a_stall(self):
        """A paced op is timed from its scheduled send, so the ops due
        while one op stalls record the wait; unpaced ops still time only
        their own submission."""
        from collections import Counter

        from repro.service.bench import _client
        from repro.service.latency import LatencyRecorder
        from repro.service.protocol import ST_MISS
        from repro.workloads.traffic import GET, TrafficOp, TrafficSpec

        stall_s = 0.1

        class StallFirst:
            def __init__(self):
                self.calls = 0

            async def submit(self, op, tenant, key, payload, wait=True):
                self.calls += 1
                if self.calls == 1:
                    await asyncio.sleep(stall_s)
                return ST_MISS, None

        traffic = TrafficSpec(ops=20, seed=1, page_size=PAGE)
        ops = [TrafficOp(GET, "default", key) for key in range(20)]

        def replay(offsets):
            recorder = LatencyRecorder()

            async def scenario():
                await _client(StallFirst(), ops, traffic, recorder,
                              Counter(), offsets=offsets,
                              start=time.perf_counter())

            asyncio.run(scenario())
            return recorder

        # Due every millisecond: ops 1..19 were due 81-99 ms before the
        # stall ended, and each records at least that.
        paced = replay([0.001 * index for index in range(20)])
        assert paced.percentile(5) >= 80_000
        unpaced = replay(None)
        assert unpaced.percentile(50) < 80_000
        assert unpaced.percentile(100) >= stall_s * 1e6

    def test_tenant_inflight_cap(self):
        async def scenario():
            config = make_config(
                shards=1, batch_ops=1, tenant_inflight=1,
                debug_op_delay_s=0.2,
            )
            service = CacheService(config)
            await service.start()
            try:
                slow = asyncio.ensure_future(
                    service.put("default", 1, b"a" * PAGE)
                )
                await asyncio.sleep(0.05)
                with pytest.raises(BackpressureError):
                    await service.get("default", 1, wait=False)
                assert await slow
            finally:
                await service.stop()

        asyncio.run(scenario())

    def test_a_cancelled_caller_holds_its_slot_until_the_shard_answers(self):
        """An operation's ``max_pending`` slot is held until its shard
        answers it: a caller cancelled meanwhile frees nothing, so the
        operations staged and in flight never exceed the bound."""

        def outstanding(service):
            return len(service._staged[0]) + sum(
                len(batch) for batch in service._inflight[0])

        async def scenario():
            config = make_config(
                shards=1, batch_ops=1, max_pending=2,
                debug_op_delay_s=0.2,
            )
            service = CacheService(config)
            await service.start()
            try:
                first = asyncio.ensure_future(
                    service.put("default", 1, b"a" * PAGE))
                second = asyncio.ensure_future(
                    service.put("default", 2, b"b" * PAGE))
                await asyncio.sleep(0.05)  # the worker is inside the first
                second.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await second
                with pytest.raises(BackpressureError):
                    await service.put("default", 3, b"c" * PAGE,
                                      wait=False)
                assert outstanding(service) == 2
                third = asyncio.ensure_future(
                    service.put("default", 3, b"c" * PAGE))
                assert await first
                # The first's slot went to the parked third.
                with pytest.raises(BackpressureError):
                    await service.put("default", 4, b"d" * PAGE,
                                      wait=False)
                assert outstanding(service) == 2
                assert await third
                assert outstanding(service) == 0
                # The cancelled caller's PUT was applied all the same.
                assert bytes(await service.get("default", 2, wait=False)) \
                    == b"b" * PAGE
            finally:
                await asyncio.wait_for(service.stop(), timeout=10)

        asyncio.run(scenario())

    def test_parked_submissions_resume_first_come_first_served(self):
        """``wait=True`` submissions parked on a full shard are handed
        slots in the order they parked; one cancelled while parked gives
        its place up."""

        async def scenario():
            config = make_config(
                shards=1, batch_ops=1, max_pending=1,
                debug_op_delay_s=0.02,
            )
            service = CacheService(config)
            await service.start()
            answered = []

            async def put(key):
                assert await service.put("default", key, b"p" * PAGE)
                answered.append(key)

            try:
                holder = asyncio.ensure_future(put(0))
                await asyncio.sleep(0.005)
                parked = [asyncio.ensure_future(put(key))
                          for key in range(1, 7)]
                await asyncio.sleep(0)  # every one is parked now
                parked[2].cancel()
                results = await asyncio.wait_for(asyncio.gather(
                    holder, *parked, return_exceptions=True), timeout=10)
                assert [type(r) for r in results].count(
                    asyncio.CancelledError) == 1
                assert answered == [0, 1, 2, 4, 5, 6]
            finally:
                await asyncio.wait_for(service.stop(), timeout=10)

        asyncio.run(scenario())

    def test_a_shard_death_fails_parked_submissions(self):
        async def scenario():
            config = make_config(
                shards=1, batch_ops=1, max_pending=1,
                debug_op_delay_s=0.5,
            )
            service = CacheService(config)
            await service.start()
            try:
                doomed = [asyncio.ensure_future(
                    service.put("default", 1, b"a" * PAGE))]
                await asyncio.sleep(0.1)  # op is inside the worker
                doomed += [
                    asyncio.ensure_future(
                        service.put("default", key, b"b" * PAGE))
                    for key in (2, 3, 4)
                ]
                await asyncio.sleep(0.01)  # three parked for its slot
                service._shards[0].process.kill()
                results = await asyncio.wait_for(
                    asyncio.gather(*doomed, return_exceptions=True),
                    timeout=10,
                )
                assert [type(r) for r in results] == [ShardDeadError] * 4
            finally:
                await asyncio.wait_for(service.stop(), timeout=10)

        asyncio.run(scenario())


def oversized_worker(config, shard_id, sock):
    """A shard that answers its first request with a 4 GB prefix."""
    FrameSocket(sock).recv_frame()
    sock.sendall(b"\xff\xff\xff\xff")
    sock.recv(1)  # until the front end gives the socket up
    sock.close()


def paired_reply_worker(config, shard_id, sock):
    """A shard that answers its first two request frames (GETs) with one
    write of both response frames, then serves as ``shard_main``."""
    conn = FrameSocket(sock)
    replies = bytearray()
    for _ in range(2):
        reply = ResponseBatch()
        for _ in iter_requests(memoryview(conn.recv_frame())):
            reply.add(ST_MISS)
        out = reply.finish()
        replies += len(out).to_bytes(4, "little") + out
    sock.sendall(replies)
    shard_main(config, shard_id, sock)


class TestShardDeath:
    def test_dead_shard_fails_fast_others_serve(self):
        async def scenario():
            config = make_config()
            service = CacheService(config)
            await service.start()
            try:
                key0 = key_on_shard(config, 0)
                key1 = key_on_shard(config, 1)
                assert await service.put("default", key1, b"y" * PAGE)
                service._shards[0].process.kill()
                service._shards[0].process.join(timeout=5)
                await asyncio.sleep(0.1)  # let the reader notice EOF
                assert service.live_shards() == 1
                with pytest.raises(ShardDeadError):
                    await service.put("default", key0, b"x" * PAGE)
                # The healthy shard is unaffected.
                got = await service.get("default", key1)
                assert bytes(got) == b"y" * PAGE
            finally:
                # The deadlock check: shutdown with a dead shard must
                # still complete promptly.
                await asyncio.wait_for(service.stop(), timeout=10)

        asyncio.run(scenario())

    def test_inflight_ops_fail_not_hang(self):
        async def scenario():
            config = make_config(shards=1, debug_op_delay_s=0.5)
            service = CacheService(config)
            await service.start()
            try:
                doomed = asyncio.ensure_future(
                    service.put("default", 1, b"a" * PAGE)
                )
                await asyncio.sleep(0.1)  # op is inside the worker
                service._shards[0].process.kill()
                with pytest.raises(ShardDeadError):
                    await asyncio.wait_for(doomed, timeout=10)
            finally:
                await asyncio.wait_for(service.stop(), timeout=10)

        asyncio.run(scenario())

    def test_short_response_fails_the_shard_not_hangs(self, monkeypatch):
        """A response frame that cannot be matched to its requests
        fails its batch and everything behind it, and loses the shard."""
        monkeypatch.setattr(shard_module, "shard_main", short_worker)

        async def scenario():
            config = make_config(shards=1, batch_ops=2)
            service = CacheService(config)
            await service.start()
            try:
                # Three gets in one loop turn: a frame of two (answered
                # with one record) and a frame of one queued behind it.
                results = await asyncio.wait_for(
                    asyncio.gather(
                        *(service.get("default", key) for key in range(3)),
                        return_exceptions=True,
                    ),
                    timeout=10,
                )
                assert [type(r) for r in results] == [ProtocolError] * 3
                assert "1 responses for 2 requests" in str(results[0])
                assert service.live_shards() == 0
                with pytest.raises(ShardDeadError):
                    await service.get("default", 1)
            finally:
                await asyncio.wait_for(service.stop(), timeout=10)

        asyncio.run(scenario())

    def test_oversized_prefix_fails_the_shard_not_the_loop(self, monkeypatch):
        """A response whose length prefix no frame can have: no buffer
        of that size is made on the event loop; the shard is lost with
        a ``ProtocolError`` and the operations in flight raise it."""
        monkeypatch.setattr(shard_module, "shard_main", oversized_worker)

        async def scenario():
            config = make_config(shards=1, batch_ops=2)
            service = CacheService(config)
            await service.start()
            try:
                results = await asyncio.wait_for(
                    asyncio.gather(
                        *(service.get("default", key) for key in range(3)),
                        return_exceptions=True,
                    ),
                    timeout=10,
                )
                assert [type(r) for r in results] == [ProtocolError] * 3
                assert "4294967295" in str(results[0])
                assert service.live_shards() == 0
                with pytest.raises(ShardDeadError):
                    await service.get("default", 1)
            finally:
                await asyncio.wait_for(service.stop(), timeout=10)

        asyncio.run(scenario())

    def test_killed_mid_write_fails_every_op(self):
        """A shard killed while a request frame is half written: the
        parked remainder must not wedge the loop, the ops or stop()."""

        async def scenario():
            page = 16 << 10
            config = make_config(
                page_size=page, tier_bytes=(4 << 20,), batch_ops=32,
                debug_op_delay_s=0.3,
            )
            service = CacheService(config)
            await service.start()
            try:
                keys = keys_on_shard(config, 0, 65)
                other = key_on_shard(config, 1)
                # The worker sleeps inside the first op while two
                # 512 KB frames queue up behind it: more than its
                # socket takes.
                doomed = [asyncio.ensure_future(
                    service.put("default", keys[0], b"a" * page))]
                await asyncio.sleep(0.05)
                doomed += [
                    asyncio.ensure_future(
                        service.put("default", key, b"b" * page))
                    for key in keys[1:]
                ]
                await asyncio.sleep(0.05)
                assert service._shards[0]._conn.unsent  # half written
                service._shards[0].process.kill()
                results = await asyncio.wait_for(
                    asyncio.gather(*doomed, return_exceptions=True),
                    timeout=10,
                )
                assert [type(r) for r in results] \
                    == [ShardDeadError] * len(doomed)
                assert service.live_shards() == 1
                assert await service.put("default", other, b"y" * page)
                assert bytes(await service.get("default", other)) \
                    == b"y" * page
            finally:
                await asyncio.wait_for(service.stop(), timeout=10)

        asyncio.run(scenario())


class TestLoopSideIO:
    """The front end's shard I/O lives on the event loop: it never
    blocks there, and it leaves nothing behind."""

    def test_bursts_larger_than_the_socket_both_ways(self):
        """512 x 4 KB in flight each way — requests, responses, then
        both at once — is several times what the kernel buffers.  A
        send that blocked the loop would deadlock against a worker
        blocked writing hits nobody is reading."""

        async def scenario():
            page = 4096
            config = make_config(
                shards=1, batch_ops=32, page_size=page,
                tier_bytes=(8 << 20,),
            )
            service = CacheService(config)
            await service.start()
            try:
                def body(key, fill):
                    return key.to_bytes(2, "little") * 8 + fill * (page - 16)

                stored = await asyncio.wait_for(asyncio.gather(*(
                    service.put("default", key, body(key, b"p"))
                    for key in range(512)
                )), timeout=60)
                assert all(stored)
                pages = await asyncio.wait_for(asyncio.gather(*(
                    service.get("default", key) for key in range(512)
                )), timeout=60)
                assert all(
                    got == body(key, b"p") for key, got in enumerate(pages)
                )
                # Full request frames against full response frames.
                mixed = await asyncio.wait_for(asyncio.gather(*(
                    service.put("default", 512 + i // 2, body(i, b"q"))
                    if i % 2 else service.get("default", i // 2)
                    for i in range(1024)
                )), timeout=60)
                assert all(mixed[1::2])
                assert all(
                    got == body(key, b"p")
                    for key, got in enumerate(mixed[0::2])
                )
                batches = service.batches_sent[0]
                assert batches == 16 + 16 + 32  # coalescing kept
            finally:
                await asyncio.wait_for(service.stop(), timeout=10)

        asyncio.run(scenario())

    def test_response_frames_read_together_all_complete(self, monkeypatch):
        """Two response frames arriving in one read complete both
        batches: every whole frame the read brought in is delivered
        before the callback returns, since the loop does not wake again
        for bytes already read."""
        monkeypatch.setattr(shard_module, "shard_main", paired_reply_worker)

        async def scenario():
            service = CacheService(make_config(shards=1, batch_ops=1))
            await service.start()
            try:
                got = await asyncio.wait_for(asyncio.gather(
                    service.get("default", 1), service.get("default", 2),
                ), timeout=10)
                assert got == [None, None]
                assert service.batches_sent[0] == 2
            finally:
                await asyncio.wait_for(service.stop(), timeout=10)

        asyncio.run(scenario())

    def test_no_threads_and_nothing_left_on_the_loop(self):
        """Two services, one after the other in one loop: the thread
        count never moves, and when each has stopped the loop watches
        the descriptors it watched before and the process holds the
        ones it held before."""

        def open_fds():
            return sorted(os.listdir("/proc/self/fd"))

        async def scenario():
            loop = asyncio.get_running_loop()
            threads = threading.active_count()
            watched = len(loop._selector.get_map())
            fds = open_fds()
            for _ in range(2):
                service = CacheService(make_config())
                await service.start()
                try:
                    assert await service.put("default", 5, b"t" * PAGE)
                    assert bytes(await service.get("default", 5)) \
                        == b"t" * PAGE
                    assert threading.active_count() == threads
                    assert len(loop._selector.get_map()) == watched + 2
                finally:
                    await service.stop()
                assert threading.active_count() == threads
                assert len(loop._selector.get_map()) == watched
                assert open_fds() == fds

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            asyncio.run(scenario())
            gc.collect()
        assert not [w for w in caught
                    if issubclass(w.category, ResourceWarning)]

    def test_worker_arguments_survive_spawn(self, monkeypatch):
        """``shard_main``'s arguments (config, id, socket) pickle into
        a spawned interpreter, not only a forked one."""
        spawn = mp.get_context("spawn")
        monkeypatch.setattr(shard_module.mp, "get_context", lambda: spawn)

        async def scenario():
            service = CacheService(make_config(shards=1))
            await service.start()
            try:
                assert await service.put("default", 9, b"s" * PAGE)
                assert bytes(await service.get("default", 9)) \
                    == b"s" * PAGE
            finally:
                await asyncio.wait_for(service.stop(), timeout=10)

        asyncio.run(scenario())

    def test_lifecycle_is_logged_not_requests(self, caplog):
        """INFO for a shard's start and clean stop, WARNING for its
        death with what that failed; nothing per request."""

        async def scenario():
            config = make_config(debug_op_delay_s=0.3)
            service = CacheService(config)
            await service.start()
            try:
                key0 = key_on_shard(config, 0)
                pid0 = service._shards[0].process.pid
                pid1 = service._shards[1].process.pid
                doomed = asyncio.ensure_future(
                    service.put("default", key0, b"a" * PAGE))
                await asyncio.sleep(0.05)
                service._shards[0].process.kill()
                with pytest.raises(ShardDeadError):
                    await asyncio.wait_for(doomed, timeout=10)
                assert await service.put(
                    "default", key_on_shard(config, 1), b"b" * PAGE)
            finally:
                await asyncio.wait_for(service.stop(), timeout=10)
            return pid0, pid1

        with caplog.at_level(logging.INFO, logger="repro.service"):
            pid0, pid1 = asyncio.run(scenario())
        lines = [(r.levelno, r.getMessage()) for r in caplog.records
                 if r.name == "repro.service"]
        assert lines == [
            (logging.INFO, f"shard 0 started: pid {pid0}, 4 vslots"),
            (logging.INFO, f"shard 1 started: pid {pid1}, 4 vslots"),
            (logging.WARNING,
             "shard 0 died (peer closed the shard socket): "
             "failed 1 in-flight batches, 1 ops"),
            (logging.INFO, f"shard 1 stopped: pid {pid1}, 4 vslots"),
        ]


class TestTcpFrontEnd:
    def test_tcp_round_trip_and_shutdown(self):
        async def scenario():
            service = CacheService(make_config(shards=1))
            await service.start()
            server, stopped = await serve_tcp(service, port=0)
            port = server.sockets[0].getsockname()[1]
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )

                async def round_trip(records):
                    frame = bytes(pack_requests(records))
                    writer.write(
                        len(frame).to_bytes(4, "little") + frame
                    )
                    await writer.drain()
                    length = int.from_bytes(
                        await reader.readexactly(4), "little"
                    )
                    reply = await reader.readexactly(length)
                    return list(iter_responses(memoryview(reply)))

                page = b"tcp page".ljust(PAGE, b".")
                put = await round_trip([(OP_PUT, 0, 0, 99, page)])
                assert put[0][0] == ST_STORED
                get = await round_trip([(OP_GET, 0, 0, 99, None)])
                assert get[0][0] == ST_HIT
                assert bytes(get[0][1]) == page
                bye = await round_trip([(OP_SHUTDOWN, 0, 0, 0, None)])
                assert bye[0][0] == ST_BYE
                assert stopped.is_set()
                writer.close()
            finally:
                server.close()
                await server.wait_closed()
                await service.stop()

        asyncio.run(scenario())

    def _serve(self, **kwargs):
        """Start service + TCP front-end and connect once."""

        @contextlib.asynccontextmanager
        async def ctx():
            async with tcp_service(make_config(shards=1), **kwargs) as (
                _service, connect
            ):
                yield await connect()

        return ctx()

    async def _read_status(self, reader):
        return (await read_reply(reader))[0][0]

    def test_rejected_frame_applies_none_of_its_records(self):
        """A frame whose second record is truncated is refused whole:
        the PUT before it must not have been stored."""

        async def scenario():
            config = make_config(shards=1, vslots=2)
            async with tcp_service(config) as (_service, connect):
                reader, writer = await connect()
                put = bytes(pack_requests(
                    [(OP_PUT, 0, 0, 5, b"five".ljust(PAGE, b"."))]
                ))
                frame = b"\x02\x00\x00\x00" + put[4:] + b"\x00\x00"
                writer.write(len(frame).to_bytes(4, "little") + frame)
                await writer.drain()
                (status, message), = await read_reply(reader)
                assert status == ST_PROTOCOL_ERROR
                assert bytes(message) == b"truncated request record"
                assert await reader.read() == b""
                reader, writer = await connect()
                get = bytes(pack_requests([(OP_GET, 0, 0, 5, None)]))
                writer.write(len(get).to_bytes(4, "little") + get)
                await writer.drain()
                assert (await read_reply(reader))[0][0] == ST_MISS

        asyncio.run(scenario())

    @pytest.mark.parametrize("op, tenant", [(9, 0), (OP_PUT, 7)])
    def test_unservable_record_draws_protocol_error_not_a_dead_shard(
        self, op, tenant
    ):
        """An op or tenant the service does not have is the client's
        error, refused before it reaches the shard: the worker cannot
        serve the record and would die on it."""

        async def scenario():
            async with tcp_service(make_config(shards=1)) as (
                service, connect
            ):
                reader, writer = await connect()
                frame = bytes(pack_requests(
                    [(op, tenant, 0, 5, b"x".ljust(PAGE, b"."))]
                ))
                writer.write(len(frame).to_bytes(4, "little") + frame)
                await writer.drain()
                assert await self._read_status(reader) == ST_PROTOCOL_ERROR
                assert service.live_shards() == 1
                assert (await service.stats())["ledgers"] == {}

        asyncio.run(scenario())

    def test_truncated_frame_draws_protocol_error(self):
        async def scenario():
            async with self._serve() as (reader, writer):
                # Header claims one record but the frame ends early.
                garbage = b"\x01\x00\x00\x00\xff\xff"
                writer.write(len(garbage).to_bytes(4, "little") + garbage)
                await writer.drain()
                assert await self._read_status(reader) == ST_PROTOCOL_ERROR
                # The server hangs up after answering.
                assert await reader.read() == b""

        asyncio.run(scenario())

    def test_oversized_frame_draws_protocol_error(self):
        async def scenario():
            async with self._serve(max_frame_bytes=4096) as (
                reader, writer
            ):
                writer.write((4097).to_bytes(4, "little"))
                await writer.drain()
                assert await self._read_status(reader) == ST_PROTOCOL_ERROR
                assert await reader.read() == b""

        asyncio.run(scenario())

    def test_idle_connection_times_out(self):
        async def scenario():
            async with self._serve(idle_timeout=0.1) as (reader, writer):
                # Send nothing; the server must hang up on its own.
                assert await asyncio.wait_for(reader.read(), timeout=5) \
                    == b""

        asyncio.run(scenario())

    def test_active_connection_survives_idle_timeout(self):
        async def scenario():
            async with self._serve(idle_timeout=5.0) as (reader, writer):
                frame = bytes(pack_requests(
                    [(OP_PUT, 0, 0, 7, b"k".ljust(PAGE, b"."))]
                ))
                writer.write(len(frame).to_bytes(4, "little") + frame)
                await writer.drain()
                assert await self._read_status(reader) == ST_STORED

        asyncio.run(scenario())
