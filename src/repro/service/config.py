"""Declarative service geometry, validated at construction.

The one invariant everything else leans on: keys map to **virtual
slots** (``vslots``), and virtual slots — not keys — map to shard
processes.  Capacities and quotas are carved per virtual slot, so a
slot's behaviour is a pure function of the operations routed to it, and
regrouping slots onto a different number of shards cannot change any
ledger by a single byte (see ``docs/service.md``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from ..mem.page import DEFAULT_PAGE_SIZE

#: Default virtual-slot count.  Power of two, comfortably above any
#: realistic process count, small enough that per-slot capacity stays
#: meaningful at bench scales.
DEFAULT_VSLOTS = 64


@dataclass(frozen=True)
class TenantSpec:
    """One tenant: a name and an optional service-wide byte quota.

    ``quota_bytes`` bounds the tenant's *stored* (compressed) bytes.  It
    is enforced per virtual slot at ``quota_bytes / vslots`` so
    enforcement needs no cross-shard coordination — the same trick as
    slab quotas in production caches, and the reason quota decisions are
    shard-count invariant.
    """

    name: str
    quota_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.name or any(c in self.name for c in ",:/"):
            raise ValueError(
                f"tenant name must be non-empty without ',:/': {self.name!r}"
            )
        if self.quota_bytes is not None and self.quota_bytes < 1:
            raise ValueError(
                f"tenant {self.name}: quota_bytes must be positive"
            )


@dataclass(frozen=True)
class ServiceConfig:
    """Everything a service instance (and its shard workers) needs.

    Attributes:
        shards: worker processes; each owns ``vslots / shards`` slots.
        vslots: virtual slots.  Must be >= shards.  Comparing runs for
            determinism requires *equal* vslots (the default never
            changes with shard count, so this holds unless overridden).
        tenants: the tenant table; wire records carry the index.
        tier_bytes: capacity of each compressed tier, warmest first,
            service-wide (carved per virtual slot).
        compressor: kernel name (``repro.compression.available()``).
            Each virtual slot gets its *own* instance so learned state
            (the adaptive selector's kind memo) stays slot-local — a
            shared instance would make chosen kernels depend on how
            slots interleave within a shard, breaking invariance.
        page_size: maximum (and expected) payload size in bytes.
        batch_ops: max operations coalesced into one request frame.
        max_pending: bound on staged + in-flight operations per shard;
            beyond it, non-waiting submissions get
            :class:`~repro.service.errors.BackpressureError`.
        tenant_inflight: optional per-tenant in-flight admission cap.
        debug_op_delay_s: artificial per-operation delay inside the
            shard worker — a test hook for forcing queue buildup.
    """

    shards: int = 1
    vslots: int = DEFAULT_VSLOTS
    tenants: Tuple[TenantSpec, ...] = (TenantSpec("default"),)
    tier_bytes: Tuple[int, ...] = (8 << 20,)
    compressor: str = "lzrw1"
    page_size: int = DEFAULT_PAGE_SIZE
    batch_ops: int = 32
    max_pending: int = 1024
    tenant_inflight: Optional[int] = None
    debug_op_delay_s: float = 0.0

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1: {self.shards}")
        if self.vslots < self.shards:
            raise ValueError(
                f"vslots ({self.vslots}) must be >= shards ({self.shards})"
            )
        if not self.tenants:
            raise ValueError("at least one tenant is required")
        names = [tenant.name for tenant in self.tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"tenant names must be unique: {names}")
        if not self.tier_bytes:
            raise ValueError("at least one tier is required")
        for i, cap in enumerate(self.tier_bytes):
            if cap // self.vslots < self.page_size:
                raise ValueError(
                    f"tier {i}: {cap} bytes over {self.vslots} vslots "
                    f"leaves less than one {self.page_size}-byte page "
                    f"per slot"
                )
        if self.page_size < 64:
            raise ValueError(f"page_size too small: {self.page_size}")
        if self.batch_ops < 1:
            raise ValueError(f"batch_ops must be >= 1: {self.batch_ops}")
        if self.max_pending < self.batch_ops:
            raise ValueError(
                f"max_pending ({self.max_pending}) must be >= "
                f"batch_ops ({self.batch_ops})"
            )
        if self.tenant_inflight is not None and self.tenant_inflight < 1:
            raise ValueError("tenant_inflight must be >= 1 when set")
        if self.debug_op_delay_s < 0:
            raise ValueError("debug_op_delay_s must be >= 0")
        # Fail fast on an unknown kernel (shards would die on it later).
        from ..compression import available

        if self.compressor not in available():
            raise ValueError(
                f"unknown compressor {self.compressor!r}; "
                f"known: {', '.join(available())}"
            )

    # -- routing ------------------------------------------------------

    def vslot_of(self, key: int) -> int:
        """Virtual slot owning a 64-bit key."""
        return key % self.vslots

    def shard_of_vslot(self, vslot: int) -> int:
        """Shard process owning a virtual slot."""
        return vslot % self.shards

    def shard_of(self, key: int) -> int:
        """Shard process owning a key (via its virtual slot)."""
        return self.vslot_of(key) % self.shards

    def slots_of_shard(self, shard: int) -> Tuple[int, ...]:
        """The virtual slots a shard owns."""
        return tuple(range(shard, self.vslots, self.shards))

    # -- per-slot carvings -------------------------------------------

    def slot_tier_bytes(self) -> Tuple[int, ...]:
        """Per-virtual-slot capacity of each tier, warmest first."""
        return tuple(cap // self.vslots for cap in self.tier_bytes)

    def slot_quota_bytes(self, tenant_index: int) -> Optional[int]:
        """Per-virtual-slot stored-byte quota for a tenant (or None)."""
        quota = self.tenants[tenant_index].quota_bytes
        if quota is None:
            return None
        return max(1, quota // self.vslots)

    def tenant_index(self, name: str) -> int:
        """Wire index of a tenant name."""
        for i, tenant in enumerate(self.tenants):
            if tenant.name == name:
                return i
        known = ", ".join(t.name for t in self.tenants)
        raise KeyError(f"unknown tenant {name!r}; known: {known}")

    def with_shards(self, shards: int) -> "ServiceConfig":
        """The same geometry served by a different process count."""
        return replace(self, shards=shards)

    def describe(self) -> Dict[str, object]:
        """JSON-native form for BENCH_service.json and logs."""
        return {
            "shards": self.shards,
            "vslots": self.vslots,
            "tenants": [
                {"name": t.name, "quota_bytes": t.quota_bytes}
                for t in self.tenants
            ],
            "tier_bytes": list(self.tier_bytes),
            "compressor": self.compressor,
            "page_size": self.page_size,
            "batch_ops": self.batch_ops,
            "max_pending": self.max_pending,
            "tenant_inflight": self.tenant_inflight,
        }


def page_key(name: bytes | str) -> int:
    """Stable 64-bit key for an arbitrary name.

    BLAKE2b rather than ``hash()``: stable across processes and
    interpreter runs (``PYTHONHASHSEED`` randomizes ``hash``), so the
    key → vslot routing is reproducible — required for determinism and
    for clients of a long-running server to agree with it.
    """
    data = name.encode("utf-8") if isinstance(name, str) else name
    return int.from_bytes(
        hashlib.blake2b(data, digest_size=8).digest(), "little"
    )


def tenants_from_spec(
    spec: str, default_quota: Optional[int] = None
) -> Tuple[TenantSpec, ...]:
    """Parse the CLI tenant grammar ``name[=quota_mb][:weight],...``.

    The weight is consumed by the traffic generator, not the service;
    this helper keeps the service-side names/quotas.  Examples::

        "alpha,beta"            two tenants, no quotas
        "alpha=4,beta=1"        4 MB and 1 MB stored-byte quotas
        "alpha=4:3,beta=1:1"    same, with 3:1 traffic weights
    """
    tenants = []
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        name = item.split(":", 1)[0]
        quota = default_quota
        if "=" in name:
            name, _, quota_mb = name.partition("=")
            quota = int(float(quota_mb) * (1 << 20))
        tenants.append(TenantSpec(name, quota))
    if not tenants:
        raise ValueError(f"no tenants in spec {spec!r}")
    return tuple(tenants)
