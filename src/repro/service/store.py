"""Per-virtual-slot compressed page stores (the shard's data plane).

Each virtual slot owns a miniature compressed-memory hierarchy — the
service-side analogue of :class:`repro.tiers.chain.TierChain`, shorn of
the simulator's virtual-time machinery:

* an ordered chain of :class:`SlotTier` byte-capacitated LRU tiers
  (warmest first).  PUTs land in the warm tier; overflow *demotes* the
  warm LRU tail one tier colder (payloads move as-is — every tier
  shares the slot's kernel, so no recompression is needed); overflow of
  the coldest tier evicts outright.
* per-tenant stored-byte quotas, carved per slot
  (:meth:`ServiceConfig.slot_quota_bytes`): a PUT that would exceed the
  tenant's carving first evicts that tenant's own coldest entries, and
  is denied only if it exceeds the quota all by itself.
* one compressor instance *per slot*, so learned kernel-selection state
  (the adaptive selector's kind memo) is a pure function of the slot's
  own history — the property that makes ledgers identical across shard
  counts.  Deterministic kernels still share compression *results*
  process-wide through :func:`repro.compression.sampler.shared_compress`.

Everything here runs inside a shard worker process, single-threaded, in
the order operations arrive — no locks, no clocks, no randomness.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Tuple

from ..compression import CompressionResult, create
from ..compression.sampler import shared_compress
from .config import ServiceConfig
from .ledger import TenantLedger


class _Entry:
    """One resident page: a compression result plus its owner."""

    __slots__ = ("tenant", "result")

    def __init__(self, tenant: int, result: CompressionResult):
        self.tenant = tenant
        self.result = result

    @property
    def stored_size(self) -> int:
        return self.result.compressed_size


class SlotTier:
    """A byte-capacitated LRU of compressed entries (one tier, one slot)."""

    __slots__ = ("capacity", "entries", "used_bytes")

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.entries: "OrderedDict[int, _Entry]" = OrderedDict()
        self.used_bytes = 0

    def __contains__(self, key: int) -> bool:
        return key in self.entries

    def get(self, key: int) -> Optional[_Entry]:
        return self.entries.get(key)

    def touch(self, key: int) -> None:
        """Mark a resident key most-recently-used."""
        self.entries.move_to_end(key)

    def insert(self, key: int, entry: _Entry) -> None:
        """Insert at MRU (caller has made room)."""
        self.entries[key] = entry
        self.used_bytes += entry.stored_size

    def remove(self, key: int) -> Optional[_Entry]:
        entry = self.entries.pop(key, None)
        if entry is not None:
            self.used_bytes -= entry.stored_size
        return entry

    def pop_lru(self) -> Tuple[int, _Entry]:
        """Remove and return the least-recently-used entry."""
        key, entry = self.entries.popitem(last=False)
        self.used_bytes -= entry.stored_size
        return key, entry

    def lru_key_of_tenant(self, tenant: int) -> Optional[int]:
        """The tenant's least recently used key, or ``None``; the scan
        stops at the first entry the tenant owns."""
        for key, entry in self.entries.items():
            if entry.tenant == tenant:
                return key
        return None


class VslotStore:
    """The tier chain, quotas, and ledgers of one virtual slot."""

    def __init__(self, config: ServiceConfig, vslot: int):
        self.config = config
        self.vslot = vslot
        self.tiers = tuple(
            SlotTier(capacity) for capacity in config.slot_tier_bytes()
        )
        # Per-slot kernel instance: see the module docstring.
        self.compressor = create(config.compressor)
        self.ledgers: Dict[int, TenantLedger] = {}
        self._quotas = tuple(
            config.slot_quota_bytes(i) for i in range(len(config.tenants))
        )
        #: tenant -> stored bytes resident in this slot (all tiers).
        self._tenant_bytes: Dict[int, int] = {}

    # -- bookkeeping --------------------------------------------------

    def ledger(self, tenant: int) -> TenantLedger:
        ledger = self.ledgers.get(tenant)
        if ledger is None:
            ledger = self.ledgers[tenant] = TenantLedger()
        return ledger

    def _account_insert(self, entry: _Entry) -> None:
        tenant = entry.tenant
        self._tenant_bytes[tenant] = (
            self._tenant_bytes.get(tenant, 0) + entry.stored_size
        )
        ledger = self.ledger(tenant)
        ledger.resident_bytes += entry.stored_size
        ledger.resident_entries += 1

    def _account_remove(self, entry: _Entry) -> None:
        tenant = entry.tenant
        self._tenant_bytes[tenant] -= entry.stored_size
        ledger = self.ledger(tenant)
        ledger.resident_bytes -= entry.stored_size
        ledger.resident_entries -= 1

    # -- the data plane ----------------------------------------------

    def get(self, tenant: int, key: int) -> Optional[bytes]:
        """Look the key up warmest-first; promote a cold hit.

        Returns the decompressed page, or ``None`` on a miss.
        """
        ledger = self.ledger(tenant)
        ledger.bump("gets")
        warm = self.tiers[0]
        entry = warm.get(key)
        if entry is not None:
            warm.touch(key)
            ledger.bump("hits")
            return self.compressor.decompress(entry.result)
        for tier in self.tiers[1:]:
            entry = tier.remove(key)
            if entry is not None:
                ledger.bump("cold_hits")
                # Promote: re-admit to the warm tier like a fresh PUT
                # (demoting its tail as needed), without re-accounting
                # the resident bytes — the entry never left the slot.
                self._make_room(warm, entry.stored_size, 0)
                warm.insert(key, entry)
                return self.compressor.decompress(entry.result)
        ledger.bump("misses")
        return None

    def put(self, tenant: int, key: int, page: bytes) -> bool:
        """Compress and admit a page; returns False on quota denial."""
        ledger = self.ledger(tenant)
        ledger.bump("puts")
        ledger.bump("payload_bytes", len(page))
        result = shared_compress(self.compressor, page)
        stored = result.compressed_size
        quota = self._quotas[tenant]
        if quota is not None and stored > quota:
            # Exceeds the tenant's whole per-slot carving on its own.
            ledger.bump("quota_denials")
            return False
        # Replace any resident version first so quota and capacity
        # accounting see the net state.
        for tier in self.tiers:
            old = tier.remove(key)
            if old is not None:
                self._account_remove(old)
                break
        if quota is not None:
            self._enforce_quota(tenant, stored, quota)
        entry = _Entry(tenant, result)
        warm = self.tiers[0]
        self._make_room(warm, stored, 0)
        warm.insert(key, entry)
        self._account_insert(entry)
        ledger.bump("stores")
        ledger.bump("stored_bytes", stored)
        return True

    def delete(self, tenant: int, key: int) -> bool:
        """Remove a key from whichever tier holds it."""
        ledger = self.ledger(tenant)
        for tier in self.tiers:
            entry = tier.remove(key)
            if entry is not None:
                self._account_remove(entry)
                ledger.bump("deletes")
                return True
        ledger.bump("delete_misses")
        return False

    # -- room-making --------------------------------------------------

    def _make_room(self, tier: SlotTier, need: int, depth: int) -> None:
        """Demote/evict LRU entries until ``need`` bytes fit in ``tier``."""
        while tier.used_bytes + need > tier.capacity and tier.entries:
            key, entry = tier.pop_lru()
            if depth + 1 < len(self.tiers):
                colder = self.tiers[depth + 1]
                self.ledger(entry.tenant).bump("demotions")
                self._make_room(colder, entry.stored_size, depth + 1)
                colder.insert(key, entry)
            else:
                self._account_remove(entry)
                self.ledger(entry.tenant).bump("evictions")

    def _enforce_quota(self, tenant: int, incoming: int,
                       quota: int) -> None:
        """Evict the tenant's own entries, coldest tier first, LRU
        first, until the incoming entry fits under the quota."""
        while self._tenant_bytes.get(tenant, 0) + incoming > quota:
            for tier in reversed(self.tiers):
                victim_key = tier.lru_key_of_tenant(tenant)
                if victim_key is not None:
                    break
            else:  # nothing left to evict
                break
            self._account_remove(tier.remove(victim_key))
            self.ledger(tenant).bump("quota_evictions")

    # -- reporting ----------------------------------------------------

    def resident_entries(self) -> int:
        return sum(len(tier.entries) for tier in self.tiers)

    def resident_bytes(self) -> int:
        return sum(tier.used_bytes for tier in self.tiers)

    def ledgers_by_name(self) -> Dict[str, Dict[str, int]]:
        """``{tenant name: ledger dict}`` for the merge protocol."""
        tenants = self.config.tenants
        return {
            tenants[index].name: ledger.as_dict()
            for index, ledger in self.ledgers.items()
        }
