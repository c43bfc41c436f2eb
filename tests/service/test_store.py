"""VslotStore: tiering, promotion, quotas — with byte-exact capacities.

These tests use the ``null`` kernel (stored size == page size) on a
single-vslot geometry, so every capacity decision is arithmetic the test
can predict: warm tier holds exactly 3 pages, cold tier exactly 2.
"""

import json
import tracemalloc

from repro.compression import sampler
from repro.compression.sampler import clear_shared_results, shared_results_size
from repro.service.config import ServiceConfig, TenantSpec
from repro.service.shard import _stats_blob
from repro.service.store import VslotStore
from repro.workloads import contentgen
from repro.workloads.traffic import (
    GET,
    PUT,
    TenantTraffic,
    TrafficSpec,
    generate_ops,
)

PAGE = 64
WARM_PAGES = 3
COLD_PAGES = 2


def make_store(tenants=(TenantSpec("t"),), tiers=(WARM_PAGES, COLD_PAGES)):
    config = ServiceConfig(
        shards=1,
        vslots=1,
        tenants=tuple(tenants),
        tier_bytes=tuple(n * PAGE for n in tiers),
        compressor="null",
        page_size=PAGE,
    )
    return VslotStore(config, vslot=0)


def page(tag: int) -> bytes:
    return bytes([tag & 0xFF]) * PAGE


class TestBasicOps:
    def test_put_get_round_trip(self):
        store = make_store()
        assert store.put(0, key=1, page=page(1))
        assert store.get(0, key=1) == page(1)
        ledger = store.ledger(0).as_dict()
        assert ledger["puts"] == ledger["stores"] == 1
        assert ledger["gets"] == ledger["hits"] == 1
        assert ledger["stored_bytes"] == PAGE

    def test_miss(self):
        store = make_store()
        assert store.get(0, key=99) is None
        assert store.ledger(0).as_dict()["misses"] == 1

    def test_replacement_keeps_one_resident_copy(self):
        store = make_store()
        store.put(0, key=1, page=page(1))
        store.put(0, key=1, page=page(2))
        assert store.resident_entries() == 1
        assert store.resident_bytes() == PAGE
        assert store.get(0, key=1) == page(2)
        assert store.ledger(0).resident_bytes == PAGE

    def test_delete_and_delete_miss(self):
        store = make_store()
        store.put(0, key=1, page=page(1))
        assert store.delete(0, key=1)
        assert not store.delete(0, key=1)
        assert store.get(0, key=1) is None
        ledger = store.ledger(0).as_dict()
        assert ledger["deletes"] == 1
        assert ledger["delete_misses"] == 1
        assert store.resident_entries() == 0
        assert store.ledger(0).resident_bytes == 0


class TestTiering:
    def test_warm_overflow_demotes_lru(self):
        store = make_store()
        for key in (1, 2, 3, 4):  # warm holds 3; key 1 demotes
            store.put(0, key=key, page=page(key))
        assert store.ledger(0).as_dict()["demotions"] == 1
        assert 1 in store.tiers[1]
        assert 1 not in store.tiers[0]
        assert store.resident_entries() == 4

    def test_cold_hit_promotes(self):
        store = make_store()
        for key in (1, 2, 3, 4):
            store.put(0, key=key, page=page(key))
        assert store.get(0, key=1) == page(1)  # cold hit
        ledger = store.ledger(0).as_dict()
        assert ledger["cold_hits"] == 1
        assert 1 in store.tiers[0]
        # Promotion made room by demoting the warm LRU (key 2).
        assert ledger["demotions"] == 2
        assert 2 in store.tiers[1]
        # Promotion moves, never duplicates: accounting is unchanged.
        assert store.resident_entries() == 4
        assert store.resident_bytes() == 4 * PAGE

    def test_coldest_overflow_evicts(self):
        store = make_store()
        for key in range(1, 7):  # capacity is 5 pages total
            store.put(0, key=key, page=page(key))
        ledger = store.ledger(0).as_dict()
        assert ledger["evictions"] == 1
        assert store.resident_entries() == 5
        assert store.get(0, key=1) is None  # the eviction victim
        assert store.ledger(0).resident_bytes == 5 * PAGE


class TestQuota:
    def test_oversized_put_denied(self):
        store = make_store(tenants=(TenantSpec("t", quota_bytes=PAGE // 2),))
        assert not store.put(0, key=1, page=page(1))
        ledger = store.ledger(0).as_dict()
        assert ledger["quota_denials"] == 1
        assert ledger["stores"] == 0
        assert store.resident_entries() == 0

    def test_quota_evicts_own_coldest_first(self):
        store = make_store(
            tenants=(TenantSpec("t", quota_bytes=2 * PAGE),)
        )
        store.put(0, key=1, page=page(1))
        store.put(0, key=2, page=page(2))
        store.put(0, key=3, page=page(3))  # over quota: key 1 goes
        ledger = store.ledger(0).as_dict()
        assert ledger["quota_evictions"] == 1
        assert store.get(0, key=1) is None
        assert store.get(0, key=2) == page(2)
        assert store.ledger(0).resident_bytes == 2 * PAGE

    def test_quota_does_not_touch_other_tenants(self):
        store = make_store(
            tenants=(TenantSpec("a", quota_bytes=PAGE), TenantSpec("b"))
        )
        store.put(1, key=100, page=page(9))
        store.put(0, key=1, page=page(1))
        store.put(0, key=2, page=page(2))  # evicts a's key 1 only
        assert store.ledger(0).as_dict()["quota_evictions"] == 1
        assert store.get(1, key=100) == page(9)
        assert store.ledger(1).as_dict()["quota_evictions"] == 0

    def test_replacing_under_quota_is_not_an_eviction(self):
        store = make_store(tenants=(TenantSpec("t", quota_bytes=PAGE),))
        store.put(0, key=1, page=page(1))
        assert store.put(0, key=1, page=page(2))
        assert store.ledger(0).as_dict()["quota_evictions"] == 0
        assert store.get(0, key=1) == page(2)

    def test_quota_victim_search_stops_at_the_first_owned_entry(self):
        """The tenant owns the 1st and the 900th of 1,000 entries: the
        1st goes, found by visiting one entry, not by listing all 1,000."""

        store = make_store(
            tenants=(TenantSpec("a", quota_bytes=2 * PAGE), TenantSpec("b")),
            tiers=(1000,),
        )
        for key in range(1000):
            store.put(0 if key in (0, 899) else 1, key, page(key))
        (tier,) = store.tiers
        items = tier.items
        visited = 0

        def counting_items():
            nonlocal visited
            for item in items():
                visited += 1
                yield item

        tier.items = counting_items
        assert store.put(0, key=5000, page=page(7))
        assert visited == 1
        assert store.ledger(0).as_dict()["quota_evictions"] == 1
        assert store.get(0, key=0) is None
        assert store.get(0, key=899) == page(899)
        assert store.resident_entries() == 1000


class TestShardMemory:
    def test_per_slot_selectors_share_one_lzrw1_table(self):
        """A shard's 64 slots each build an adaptive selector, hence an
        ``Lzrw1``; its hash table is the process's, not the slot's.  A
        table per slot would hold about 8.7 MB traced."""
        config = ServiceConfig(compressor="adaptive")
        dictionary = contentgen.make_dictionary()
        pages = [contentgen.text_page_random(vslot, dictionary)
                 for vslot in range(config.vslots)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            stores = [VslotStore(config, vslot)
                      for vslot in range(config.vslots)]
            for vslot, store in enumerate(stores):
                assert store.put(0, key=vslot, page=pages[vslot])
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < 2 << 20, held

    def test_a_kv_mixed_replay_holds_each_payload_once_and_no_loser(self):
        """``kv-mixed``'s geometry and stream (seed 11, one pass)
        through 64 in-process stores: every payload held is one object,
        shared by the process-wide finished results and the tier that
        stores it; the selectors keep choices, not payloads; and every
        finished result is what some selector chose for those bytes."""
        clear_shared_results()
        config = ServiceConfig(
            shards=1,
            tenants=(TenantSpec("alpha"), TenantSpec("beta", 64 * 6144)),
            tier_bytes=(320 << 10, 320 << 10),
            compressor="adaptive",
        )
        traffic = TrafficSpec(
            ops=3000, seed=11,
            tenants=(TenantTraffic("alpha", 3.0, 600),
                     TenantTraffic("beta", 1.0, 200)),
            zipf_s=1.1, read_fraction=0.75, delete_fraction=0.20,
        )
        stores = [VslotStore(config, vslot) for vslot in range(64)]
        try:
            for op in generate_ops(traffic):
                store = stores[config.vslot_of(op.key)]
                tenant = config.tenant_index(op.tenant)
                if op.op == PUT:
                    store.put(tenant, op.key, op.payload(traffic))
                elif op.op == GET:
                    store.get(tenant, op.key)
                else:
                    store.delete(tenant, op.key)
            finished = dict(sampler._SHARED_FINISHED)
            assert shared_results_size() == 0   # no per-kernel results
        finally:
            clear_shared_results()
        resident = [entry.result for store in stores
                    for tier in store.tiers for _, entry in tier.items()]
        assert len(resident) > 100
        kept = {id(result.payload) for result in finished.values()}
        assert all(id(result.payload) in kept for result in resident)
        copies: dict = {}
        for result in list(finished.values()) + resident:
            copies.setdefault(bytes(result.payload), set()).add(
                id(result.payload))
        assert all(len(ids) == 1 for ids in copies.values())
        chosen = {}
        for store in stores:
            selector = store.compressor
            for fp, index in selector._results.items():
                assert type(index) is int
                chosen.setdefault(fp, set()).add(selector._keys[index])
        for kernel_key, fp in finished:
            assert kernel_key in chosen[fp], f"a losing {kernel_key} result"


class TestReporting:
    def test_ledgers_by_name(self):
        store = make_store(tenants=(TenantSpec("a"), TenantSpec("b")))
        store.put(0, key=1, page=page(1))
        store.get(1, key=2)
        by_name = store.ledgers_by_name()
        assert by_name["a"]["stores"] == 1
        assert by_name["b"]["misses"] == 1

    def test_shard_stats_count_an_adaptive_shards_finished_results(self):
        """``OP_STATS``' ``kernel_cache_entries`` counts the selector's
        finished results too: an adaptive shard keeps no per-kernel
        result, so counting those alone read 0."""
        clear_shared_results()
        config = ServiceConfig(compressor="adaptive", vslots=4)
        dictionary = contentgen.make_dictionary()
        slots = {vslot: VslotStore(config, vslot) for vslot in range(4)}
        try:
            for key in range(12):
                slots[key % 4].put(0, key=key, page=(
                    contentgen.text_page_random(key, dictionary)))
            stats = json.loads(_stats_blob(config, 0, slots, 12, 1, 0.0,
                                           None, set()))
            assert shared_results_size() == 0
            assert stats["kernel_cache_entries"] \
                == len(sampler._SHARED_FINISHED) > 0
        finally:
            clear_shared_results()
