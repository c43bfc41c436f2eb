"""Logarithmic latency histograms.

The mean access times of Figure 3 hide the cache's real signature: it
collapses the *median* fault latency from a disk seek to a decompression
while the tail (faults that still reach the backing store) stays put.
The VM records every fault's virtual-time cost into one of these
histograms, and reports can print percentiles.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple


class LatencyHistogram:
    """Log-bucketed histogram of non-negative durations (seconds).

    Buckets are powers of ``base`` starting at ``smallest``; everything
    below ``smallest`` lands in bucket 0.  Memory is O(#buckets), so it
    is safe to record millions of samples.
    """

    def __init__(self, smallest: float = 1e-6, base: float = 2.0,
                 buckets: int = 48):
        if smallest <= 0 or base <= 1.0 or buckets < 2:
            raise ValueError("invalid histogram geometry")
        self.smallest = smallest
        self.base = base
        self.nbuckets = buckets
        self._counts: List[int] = [0] * buckets
        self.samples = 0
        self.total = 0.0
        self.max_value = 0.0

    def record(self, seconds: float) -> None:
        """Add one sample."""
        if seconds < 0:
            raise ValueError(f"negative duration: {seconds}")
        self.samples += 1
        self.total += seconds
        if seconds > self.max_value:
            self.max_value = seconds
        # One sample per simulated fault: the bucket is worked out inline.
        if seconds < self.smallest:
            self._counts[0] += 1
        else:
            index = int(math.log(seconds / self.smallest, self.base)) + 1
            self._counts[min(index, self.nbuckets - 1)] += 1

    def _bucket_upper(self, index: int) -> float:
        if index == 0:
            return self.smallest
        return self.smallest * self.base ** index

    @property
    def mean(self) -> float:
        """Arithmetic mean of the samples."""
        return self.total / self.samples if self.samples else 0.0

    def percentile(self, p: float) -> float:
        """Upper bound of the bucket containing the p-th percentile.

        Resolution is one bucket (a factor of ``base``); sufficient to
        tell a decompression (~ms) from a disk seek (~tens of ms).
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile out of range: {p}")
        if self.samples == 0:
            return 0.0
        target = p / 100.0 * self.samples
        running = 0
        for index, count in enumerate(self._counts):
            running += count
            if running >= target:
                return self._bucket_upper(index)
        return self._bucket_upper(self.nbuckets - 1)

    def summary(self) -> Dict[str, float]:
        """The numbers a report wants."""
        return {
            "samples": self.samples,
            "mean_ms": self.mean * 1000.0,
            "p50_ms": self.percentile(50) * 1000.0,
            "p90_ms": self.percentile(90) * 1000.0,
            "p99_ms": self.percentile(99) * 1000.0,
            "max_ms": self.max_value * 1000.0,
        }

    def nonzero_buckets(self) -> Sequence[Tuple[float, int]]:
        """(bucket upper bound seconds, count) pairs for plotting."""
        return [
            (self._bucket_upper(index), count)
            for index, count in enumerate(self._counts)
            if count
        ]
