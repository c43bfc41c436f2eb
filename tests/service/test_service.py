"""End-to-end CacheService tests: correctness, shard-count invariance,
backpressure, and failure isolation.

No pytest-asyncio in the toolchain: each test drives its coroutine with
``asyncio.run``, which also guarantees a fresh loop (and fresh shard
processes) per test.
"""

import asyncio

import pytest

from repro.service import (
    BackpressureError,
    CacheService,
    ServiceConfig,
    ShardDeadError,
    TenantSpec,
)
from repro.service.bench import run_service_point, service_spec
from repro.service.protocol import (
    OP_GET,
    OP_PUT,
    OP_SHUTDOWN,
    ST_BYE,
    ST_HIT,
    ST_PROTOCOL_ERROR,
    ST_STORED,
    iter_responses,
    pack_requests,
)
from repro.service.server import serve_tcp

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


def key_on_shard(config, shard):
    return next(k for k in range(10000) if config.shard_of(k) == shard)


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
        """Start service + TCP front-end; returns an async context."""
        import contextlib

        @contextlib.asynccontextmanager
        async def ctx():
            service = CacheService(make_config(shards=1))
            await service.start()
            server, _stopped = await serve_tcp(service, port=0, **kwargs)
            port = server.sockets[0].getsockname()[1]
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                yield reader, writer
                writer.close()
            finally:
                server.close()
                await server.wait_closed()
                await service.stop()

        return ctx()

    async def _read_status(self, reader):
        length = int.from_bytes(await reader.readexactly(4), "little")
        reply = await reader.readexactly(length)
        return list(iter_responses(memoryview(reply)))[0][0]

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
