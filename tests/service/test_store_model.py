"""VslotStore against a dict-plus-LRU model, under arbitrary sequences of
PUT, GET and DELETE from two tenants.

The ``null`` kernel stores every page at its own size, so each tier holds
a whole number of pages and the store's tier chain, without quotas,
keeps exactly the keys one LRU of the chain's combined page capacity
would keep (demotion moves a warm tier's coldest entry to the colder
tier's hot end, so the chain is one recency order).
"""

from collections import OrderedDict

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, initialize, invariant, precondition, rule,
)

from repro.service.config import ServiceConfig, TenantSpec
from repro.service.store import VslotStore

PAGE = 64
KEYS = st.integers(min_value=0, max_value=11)
TENANTS = st.integers(min_value=0, max_value=1)
#: Per-tenant slot quota: none, less than one page (every PUT denied),
#: or a whole number of pages.
QUOTAS = st.sampled_from([None, PAGE // 2, PAGE, 2 * PAGE, 3 * PAGE])


class StoreModel(RuleBasedStateMachine):
    store = None

    @initialize(
        tier_pages=st.lists(st.integers(1, 4), min_size=1, max_size=3),
        quotas=st.one_of(st.just((None, None)), st.tuples(QUOTAS, QUOTAS)),
    )
    def build(self, tier_pages, quotas):
        self.quotas = quotas
        self.store = VslotStore(ServiceConfig(
            shards=1,
            vslots=1,
            tenants=(TenantSpec("a", quota_bytes=quotas[0]),
                     TenantSpec("b", quota_bytes=quotas[1])),
            tier_bytes=tuple(n * PAGE for n in tier_pages),
            compressor="null",
            page_size=PAGE,
        ), vslot=0)
        self.capacity_pages = sum(tier_pages)
        self.latest = {}             # key -> last stored page
        self.lru = OrderedDict()     # the quota-free model's resident keys
        self.version = 0

    @property
    def unlimited(self):
        return self.quotas == (None, None)

    @precondition(lambda self: self.store is not None)
    @rule(tenant=TENANTS, key=KEYS)
    def put(self, tenant, key):
        self.version += 1
        page = self.version.to_bytes(4, "little") * (PAGE // 4)
        stored = self.store.put(tenant, key, page)
        assert stored == (self.quotas[tenant] is None
                          or self.quotas[tenant] >= PAGE)
        if stored:
            self.latest[key] = page
            self.lru.pop(key, None)
            self.lru[key] = None
            if len(self.lru) > self.capacity_pages:
                self.lru.popitem(last=False)

    @precondition(lambda self: self.store is not None)
    @rule(tenant=TENANTS, key=KEYS)
    def get(self, tenant, key):
        got = self.store.get(tenant, key)
        assert got in (None, self.latest.get(key))
        if self.unlimited:
            assert (got is not None) == (key in self.lru)
        if got is not None and key in self.lru:
            self.lru.move_to_end(key)

    @precondition(lambda self: self.store is not None)
    @rule(tenant=TENANTS, key=KEYS)
    def delete(self, tenant, key):
        deleted = self.store.delete(tenant, key)
        if self.unlimited:
            assert deleted == (key in self.lru)
        self.latest.pop(key, None)
        self.lru.pop(key, None)

    @invariant()
    def conserved(self):
        if self.store is None:
            return
        store = self.store
        ledgers = store.ledgers.values()
        tier_bytes = sum(tier.used_bytes for tier in store.tiers)
        entries = [entry for tier in store.tiers
                   for _, entry in tier.items()]
        assert (sum(ledger.resident_bytes for ledger in ledgers)
                == tier_bytes == store.resident_bytes()
                == sum(entry.nbytes for entry in entries))
        assert (sum(ledger.resident_entries for ledger in ledgers)
                == len(entries) == store.resident_entries())

    @invariant()
    def within_capacity_and_quota(self):
        if self.store is None:
            return
        store = self.store
        for tier, capacity in zip(store.tiers,
                                  store.config.slot_tier_bytes()):
            assert tier.used_bytes <= capacity
        for tenant, ledger in store.ledgers.items():
            quota = self.quotas[tenant]
            assert quota is None or ledger.resident_bytes <= quota

    @invariant()
    def quota_free_chain_is_one_lru(self):
        if self.store is None or not self.unlimited:
            return
        resident = {key for tier in self.store.tiers
                    for key, _ in tier.items()}
        assert resident == set(self.lru)


StoreModel.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None,
)
TestStoreModel = StoreModel.TestCase
