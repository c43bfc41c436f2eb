"""Time ledger: where every simulated cost is charged, and the clock.

Components post (category, seconds) pairs; the ledger advances the
virtual clock (:attr:`Ledger.now`, from which every LRU age and reported
time is read) and keeps per-category totals so reports can break "where
did the time go" down into compression, decompression, copies, I/O, fault
overhead, and so on — the terms of the paper's trade-off discussion.
"""

from __future__ import annotations

import enum
from typing import Dict


class TimeCategory(enum.Enum):
    """Buckets for elapsed virtual time."""

    # Enum members are singletons compared by identity, so the identity
    # hash is equivalent to the default name-based one — and C-speed,
    # which matters because every simulated reference keys _totals on it.
    __hash__ = object.__hash__

    BASE = "base"                  # in-memory references, app compute
    FAULT_TRAP = "fault-trap"      # kernel fault handling overhead
    COMPRESS = "compress"
    DECOMPRESS = "decompress"
    COPY = "copy"                  # scatter/gather and page copies
    IO_READ = "io-read"
    IO_WRITE = "io-write"
    CLEANER = "cleaner"            # background write-out (charged in-line)
    GC = "gc"                      # compressed-swap garbage collection
    RETRY_BACKOFF = "retry-backoff"  # waits between failed-I/O attempts
    DEMOTE = "demote"              # inter-tier recompression (N-tier chains)
    CONTROL = "control"            # closed-loop controller evaluations


class Ledger:
    """Accumulates charged time by category and drives the clock:
    ``now`` (seconds) is a plain attribute only :meth:`charge` moves."""

    def __init__(self, start: float = 0.0):
        self.now = float(start)
        self._totals: Dict[TimeCategory, float] = {
            category: 0.0 for category in TimeCategory
        }

    def charge(self, category: TimeCategory, seconds: float) -> None:
        """Post ``seconds`` of work to ``category`` and advance the clock."""
        if seconds < 0:
            raise ValueError(f"negative charge: {seconds}")
        self._totals[category] += seconds
        self.now += seconds

    def total(self, category: TimeCategory | None = None) -> float:
        """Total charged time, overall or for one category."""
        if category is None:
            return sum(self._totals.values())
        return self._totals[category]

    def reset_totals(self) -> None:
        """Zero the per-category totals without touching the clock.

        Used between a workload's unmeasured setup phase and its measured
        run: LRU age stamps stay valid (the clock is monotonic), but
        reported time covers only the measurement window.
        """
        for category in self._totals:
            self._totals[category] = 0.0

    def breakdown(self) -> Dict[str, float]:
        """Per-category totals keyed by category value, for reports."""
        return {
            category.value: seconds
            for category, seconds in self._totals.items()
            if seconds > 0.0
        }
