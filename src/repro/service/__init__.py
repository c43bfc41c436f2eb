"""The compressed-cache *service*: the simulator turned into a system.

``repro.service`` wraps the compression-cache machinery in a
long-running, hash-sharded server:

* :class:`~repro.service.config.ServiceConfig` /
  :class:`~repro.service.config.TenantSpec` — declarative geometry
  (shards, virtual slots, tier capacities, quotas, batching limits);
* :class:`~repro.service.server.CacheService` — the asyncio front-end
  exposing ``get``/``put``/``delete`` with per-shard request batching,
  bounded in-flight work, and admission control;
* :mod:`~repro.service.shard` — the per-process shard worker owning the
  virtual-slot compressed stores;
* :class:`~repro.service.ledger.TenantLedger` — commutative per-tenant
  accounting whose merge is byte-identical for any shard count;
* :class:`~repro.service.latency.LatencyRecorder` — the HDR-style
  histogram behind the p50/p95/p99/p999 figures;
* :mod:`~repro.service.bench` — the ``serve-bench`` traffic replay that
  writes ``BENCH_service.json``.

See ``docs/service.md`` for the architecture and the determinism
contract (why 1-shard and 4-shard runs of the same traffic produce
identical ledgers).
"""

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "config": ("ServiceConfig", "TenantSpec"),
    "errors": ("BackpressureError", "ServiceError", "ShardDeadError"),
    "latency": ("LatencyRecorder",),
    "ledger": ("TenantLedger", "ledger_digest", "merge_ledgers"),
    "server": ("CacheService",),
})
