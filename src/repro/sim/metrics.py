"""Simulation counters and derived statistics.

Everything a report needs: access/fault counts, where faults were
satisfied (compression cache, compressed store, raw swap, zero fill),
what happened at evictions, compression outcomes (the Table 1 columns),
and the time breakdown from the ledger.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..compression.stats import CompressionStats
from ..counters import Counters
from .histogram import LatencyHistogram
from .ledger import Ledger


@dataclass
class FaultCounters(Counters):
    """Where page faults were satisfied."""

    total: int = 0
    from_ccache: int = 0        # decompressed from the in-memory cache
    from_fragstore: int = 0     # compressed page read from backing store
    from_swap: int = 0          # raw page read from backing store
    zero_fill: int = 0          # first touch


@dataclass
class EvictionCounters(Counters):
    """What happened to pages pushed out of the resident set."""

    total: int = 0
    compressed_kept: int = 0    # met the 4:3 threshold, entered the cache
    uncompressible: int = 0     # failed the threshold, raw swap path
    bypassed_gate: int = 0      # adaptive gate closed, never compressed
    clean_drops: int = 0        # valid copy elsewhere, no work needed
    ccache_fast_drops: int = 0  # unmodified page still compressed in cache
    raw_writes: int = 0         # full-page writes to the standard swap


@dataclass
class SimulationMetrics:
    """Top-level counters for one simulated run."""

    accesses: int = 0
    read_accesses: int = 0
    write_accesses: int = 0
    resident_hits: int = 0
    faults: FaultCounters = field(default_factory=FaultCounters)
    evictions: EvictionCounters = field(default_factory=EvictionCounters)
    compression: CompressionStats = field(default_factory=CompressionStats)
    prefetched_pages: int = 0
    cleaner_invocations: int = 0
    #: Virtual-time cost of each individual fault (trap to completion).
    fault_latency: LatencyHistogram = field(
        default_factory=LatencyHistogram
    )

    @property
    def fault_rate(self) -> float:
        """Faults per access."""
        return self.faults.total / self.accesses if self.accesses else 0.0

    def snapshot(self, ledger: Optional[Ledger] = None) -> Dict[str, object]:
        """Plain-dict dump for reports and regression tests."""
        result: Dict[str, object] = {
            "accesses": self.accesses,
            "read_accesses": self.read_accesses,
            "write_accesses": self.write_accesses,
            "resident_hits": self.resident_hits,
            "fault_rate": self.fault_rate,
            "faults": self.faults.snapshot(),
            "evictions": self.evictions.snapshot(),
            "prefetched_pages": self.prefetched_pages,
            "cleaner_invocations": self.cleaner_invocations,
            "compression_ratio_percent": self.compression.mean_ratio_percent,
            "uncompressible_percent": self.compression.uncompressible_percent,
        }
        if self.fault_latency.samples:
            result["fault_latency"] = self.fault_latency.summary()
        if ledger is not None:
            result["elapsed_seconds"] = ledger.total()
            result["time_breakdown"] = ledger.breakdown()
        return result
