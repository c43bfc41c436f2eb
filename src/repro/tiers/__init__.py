"""Pluggable N-tier compressed-memory hierarchy.

The paper builds exactly one compressed tier between uncompressed VM
pages and the backing store.  Follow-on systems (TMTS's multiple
software-defined compressed tiers, ZipCache's compressed DRAM/SSD cache)
show the same mechanisms generalize to a *chain*: each tier has its own
kernel, capacity, age bias, and demotion policy, and pages flow warm →
cold as pressure mounts.

This package provides that generalization:

* :class:`~repro.tiers.spec.TierSpec` — declarative per-tier
  configuration (compressor, capacity, trading terms, cleaner);
* :class:`~repro.tiers.protocol.MemoryTier` — the protocol every tier
  implementation satisfies (admit / fault / demote / shrink / stats);
* :class:`~repro.tiers.compressed.CompressedTier` — a compression cache
  configured as one tier, with a :class:`~repro.tiers.compressed.
  DemotionSink` recompressing write-outs into the next-colder tier;
* :class:`~repro.tiers.store.StoreTier` — the cold end of the chain
  (fragment store + raw swap); the warm end is the VM's own resident
  set, which needs no adapter;
* :class:`~repro.tiers.chain.TierChain` — the ordered chain the VM and
  the external pager drive.

The default machine configuration builds a one-element chain that is
byte-identical to the historical single compression cache; see
``docs/tiers.md`` for the configuration schema and a worked two-tier
example.
"""

from .chain import TierChain
from .compressed import CompressedTier, DemotionSink
from .protocol import MemoryTier, TierStats
from .spec import TierSpec, parse_tier_specs, two_tier_specs
from .store import StoreTier

__all__ = [
    "CompressedTier",
    "DemotionSink",
    "MemoryTier",
    "StoreTier",
    "TierChain",
    "TierSpec",
    "TierStats",
    "parse_tier_specs",
    "two_tier_specs",
]
