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
* :class:`~repro.tiers.compressed.CompressedTier` — a compression cache
  configured as one tier (cache, kernel sampler, gate, cleaner), with a
  :class:`~repro.tiers.compressed.DemotionSink` recompressing write-outs
  into the next-colder tier;
* :class:`~repro.tiers.chain.TierChain` — the ordered chain over the
  backing store, and the one interface both paging architectures call:
  ``compress_evicted``/``admit`` on eviction, ``fetch``/
  ``charge_decompress`` on a fault, ``run_cleaners`` after one, and
  ``drain`` at the end.  The warm end is the VM's own resident set and
  the cold end the fragment store and raw swap; neither needs an
  adapter.

The default machine configuration builds a one-element chain that is
byte-identical to the historical single compression cache; see
``docs/tiers.md`` for the configuration schema and a worked two-tier
example.
"""

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "chain": ("Rejected", "TierChain"),
    "compressed": ("CompressedTier", "DemotionSink"),
    "spec": ("TierSpec", "parse_tier_specs", "two_tier_specs"),
})
