"""Per-virtual-slot compressed page stores (the shard's data plane).

Each virtual slot owns a miniature compressed-memory hierarchy — the
service-side analogue of :class:`repro.tiers.chain.TierChain`, shorn of
the simulator's virtual-time machinery:

* an ordered chain of byte-capacitated LRU tiers, each a
  :class:`repro.mem.lru.SizedLru` (warmest first).  PUTs land in the
  warm tier; overflow *demotes* the warm LRU tail one tier colder
  (payloads move as-is — every tier shares the slot's kernel, so no
  recompression is needed); overflow of the coldest tier evicts
  outright.
* per-tenant stored-byte quotas, carved per slot
  (:meth:`ServiceConfig.slot_quota_bytes`): a PUT that would exceed the
  tenant's carving first evicts that tenant's own coldest entries, and
  is denied only if it exceeds the quota all by itself.
* one compressor instance *per slot*, so learned kernel-selection state
  (the adaptive selector's kind memo) is a pure function of the slot's
  own history — the property that makes ledgers identical across shard
  counts.  Deterministic kernels still share compression *results*
  process-wide through :func:`repro.compression.sampler.shared_compress`,
  and the selector its finished ones through
  :func:`~repro.compression.sampler.shared_finished`: a stored payload
  is that store's object, held once in the shard.

Everything here runs inside a shard worker process, single-threaded, in
the order operations arrive — no locks, no clocks, no randomness.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..compression import CompressionResult, create
from ..compression.sampler import shared_compress
from ..mem.lru import SizedLru
from .config import ServiceConfig
from .ledger import TenantLedger


class _Entry:
    """One resident page: a compression result plus its owner."""

    __slots__ = ("tenant", "result", "nbytes")

    def __init__(self, tenant: int, result: CompressionResult):
        self.tenant = tenant
        self.result = result
        self.nbytes = result.compressed_size


class VslotStore:
    """The tier chain, quotas, and ledgers of one virtual slot."""

    def __init__(self, config: ServiceConfig, vslot: int):
        self.config = config
        self.vslot = vslot
        self._capacities = config.slot_tier_bytes()
        self.tiers = tuple(SizedLru() for _ in self._capacities)
        # Per-slot kernel instance: see the module docstring.
        self.compressor = create(config.compressor)
        self.ledgers: Dict[int, TenantLedger] = {}
        self._quotas = tuple(
            config.slot_quota_bytes(i) for i in range(len(config.tenants))
        )

    # -- bookkeeping --------------------------------------------------

    def ledger(self, tenant: int) -> TenantLedger:
        ledger = self.ledgers.get(tenant)
        if ledger is None:
            ledger = self.ledgers[tenant] = TenantLedger()
        return ledger

    def _account_insert(self, entry: _Entry) -> None:
        ledger = self.ledger(entry.tenant)
        ledger.resident_bytes += entry.nbytes
        ledger.resident_entries += 1

    def _account_remove(self, entry: _Entry) -> None:
        ledger = self.ledger(entry.tenant)
        ledger.resident_bytes -= entry.nbytes
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
            entry = tier.pop(key)
            if entry is not None:
                ledger.bump("cold_hits")
                # Promote: re-admit to the warm tier like a fresh PUT
                # (demoting its tail as needed), without re-accounting
                # the resident bytes — the entry never left the slot.
                self._make_room(0, entry.nbytes)
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
            old = tier.pop(key)
            if old is not None:
                self._account_remove(old)
                break
        if quota is not None:
            self._enforce_quota(tenant, stored, quota)
        entry = _Entry(tenant, result)
        self._make_room(0, stored)
        self.tiers[0].insert(key, entry)
        self._account_insert(entry)
        ledger.bump("stores")
        ledger.bump("stored_bytes", stored)
        return True

    def delete(self, tenant: int, key: int) -> bool:
        """Remove a key from whichever tier holds it."""
        ledger = self.ledger(tenant)
        for tier in self.tiers:
            entry = tier.pop(key)
            if entry is not None:
                self._account_remove(entry)
                ledger.bump("deletes")
                return True
        ledger.bump("delete_misses")
        return False

    # -- room-making --------------------------------------------------

    def _make_room(self, depth: int, need: int) -> None:
        """Demote/evict LRU entries until ``need`` bytes fit in tier
        ``depth``."""
        tier = self.tiers[depth]
        capacity = self._capacities[depth]
        while tier.used_bytes + need > capacity and tier:
            key, entry = tier.pop_lru()
            if depth + 1 < len(self.tiers):
                self.ledger(entry.tenant).bump("demotions")
                self._make_room(depth + 1, entry.nbytes)
                self.tiers[depth + 1].insert(key, entry)
            else:
                self._account_remove(entry)
                self.ledger(entry.tenant).bump("evictions")

    def _enforce_quota(self, tenant: int, incoming: int,
                       quota: int) -> None:
        """Evict the tenant's own entries, coldest tier first, LRU
        first, until the incoming entry fits under the quota."""
        ledger = self.ledger(tenant)
        while ledger.resident_bytes + incoming > quota:
            for tier in reversed(self.tiers):
                # The scan stops at the tenant's first (coldest) entry.
                victim = next((key for key, entry in tier.items()
                               if entry.tenant == tenant), None)
                if victim is not None:
                    break
            else:  # nothing left to evict
                break
            self._account_remove(tier.pop(victim))
            ledger.bump("quota_evictions")

    # -- reporting ----------------------------------------------------

    def resident_entries(self) -> int:
        return sum(len(tier) for tier in self.tiers)

    def resident_bytes(self) -> int:
        return sum(tier.used_bytes for tier in self.tiers)

    def ledgers_by_name(self) -> Dict[str, Dict[str, int]]:
        """``{tenant name: ledger dict}`` for the merge protocol."""
        tenants = self.config.tenants
        return {
            tenants[index].name: ledger.as_dict()
            for index, ledger in self.ledgers.items()
        }
