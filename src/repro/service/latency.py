"""HDR-style latency histogram: bounded relative error, mergeable.

Recording a tail percentile from a sorted list of every sample costs
O(n) memory and a sort per report; at millions of requests that is the
benchmark perturbing itself.  The standard fix (HdrHistogram, as used by
wrk2 and friends) is a histogram whose bucket widths grow geometrically
while each power-of-two range is split into a fixed number of linear
sub-buckets, giving a guaranteed maximum *relative* error — here 1/32,
about 3% — at a few KBytes of memory regardless of sample count.

Values are non-negative integers (the service records microseconds).
Histograms merge by summing counts, so per-client recorders combine into
one service-wide distribution without sharing state on the hot path.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence

#: log2 of the linear sub-buckets per power-of-two range.  5 → 32
#: sub-buckets → recorded values are at most ~3.1% below the true value.
_SUB_BITS = 5
_SUB_COUNT = 1 << _SUB_BITS

#: Percentiles reported by :meth:`LatencyRecorder.snapshot`.
REPORT_PERCENTILES = (50.0, 95.0, 99.0, 99.9)


def _bucket_index(value: int) -> int:
    """Histogram slot for a non-negative integer value.

    Values below ``_SUB_COUNT`` are exact (one slot each); above, the
    value's top ``_SUB_BITS + 1`` significant bits select the slot.
    """
    if value < _SUB_COUNT:
        return value
    shift = value.bit_length() - (_SUB_BITS + 1)
    # (value >> shift) is in [_SUB_COUNT, 2 * _SUB_COUNT); consecutive
    # exponents tile consecutive _SUB_COUNT-wide slot ranges.
    return (shift << _SUB_BITS) + (value >> shift)


def _bucket_upper_bound(index: int) -> int:
    """The largest value that maps to histogram slot ``index``."""
    if index < _SUB_COUNT:
        return index
    # _bucket_index stores shift s at slot range [(s+1)*32, (s+2)*32):
    # shift 0 shares the exact range's tiling, so undo the +1 offset.
    shift = (index >> _SUB_BITS) - 1
    base = (index & (_SUB_COUNT - 1)) | _SUB_COUNT
    return ((base + 1) << shift) - 1


class LatencyRecorder:
    """Records integer samples; reports percentiles with ~3% error.

    Not thread-safe: each recording context (one bench client, one shard)
    owns its recorder and merges at the end.
    """

    __slots__ = ("_counts", "count", "total", "max_value")

    def __init__(self) -> None:
        self._counts: Dict[int, int] = {}
        self.count = 0
        self.total = 0
        self.max_value = 0

    def record(self, value: int) -> None:
        """Add one sample (non-negative integer units, e.g. µs)."""
        if value < 0:
            raise ValueError(f"latency samples must be >= 0: {value}")
        index = _bucket_index(value)
        counts = self._counts
        counts[index] = counts.get(index, 0) + 1
        self.count += 1
        self.total += value
        if value > self.max_value:
            self.max_value = value

    def merge(self, other: "LatencyRecorder") -> None:
        """Fold another recorder's samples into this one."""
        counts = self._counts
        for index, n in other._counts.items():
            counts[index] = counts.get(index, 0) + n
        self.count += other.count
        self.total += other.total
        if other.max_value > self.max_value:
            self.max_value = other.max_value

    def percentile(self, p: float) -> int:
        """The value at or below which ``p`` percent of samples fall.

        Reported as the upper bound of the containing bucket, so the
        figure can overstate the true percentile by at most one bucket
        width (the ~3% relative-error guarantee), never understate the
        tail — the conservative direction for latency reporting.
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile out of range: {p}")
        if self.count == 0:
            return 0
        # Samples needed at or below the answer; at least 1.
        target = max(1, int(self.count * p / 100.0 + 0.5))
        seen = 0
        for index in sorted(self._counts):
            seen += self._counts[index]
            if seen >= target:
                return min(_bucket_upper_bound(index), self.max_value)
        return self.max_value

    @property
    def mean(self) -> float:
        """Exact arithmetic mean of the recorded samples."""
        return self.total / self.count if self.count else 0.0

    def snapshot(
        self, percentiles: Sequence[float] = REPORT_PERCENTILES
    ) -> Dict[str, object]:
        """JSON-native summary: count, mean, max, and the percentiles.

        Percentile keys follow the HdrHistogram convention: ``p50``,
        ``p99``, ``p999`` (the decimal point dropped).
        """
        out: Dict[str, object] = {
            "count": self.count,
            "mean": round(self.mean, 1),
            "max": self.max_value,
        }
        for p in percentiles:
            key = f"p{p:g}".replace(".", "")
            out[key] = self.percentile(p)
        return out

    @classmethod
    def of(cls, samples: Iterable[int]) -> "LatencyRecorder":
        """Build a recorder from an iterable of samples (tests, one-offs)."""
        recorder = cls()
        for sample in samples:
            recorder.record(sample)
        return recorder


def merge_all(recorders: Iterable[LatencyRecorder]) -> LatencyRecorder:
    """Combine many recorders into a fresh one."""
    merged = LatencyRecorder()
    for recorder in recorders:
        merged.merge(recorder)
    return merged
