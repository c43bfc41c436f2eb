"""Latency histograms and fault-latency integration."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.histogram import LatencyHistogram


class TestHistogram:
    def test_empty(self):
        histogram = LatencyHistogram()
        assert histogram.mean == 0.0
        assert histogram.percentile(50) == 0.0
        assert histogram.samples == 0

    def test_mean_and_max(self):
        histogram = LatencyHistogram()
        for value in (0.001, 0.002, 0.003):
            histogram.record(value)
        assert histogram.mean == pytest.approx(0.002)
        assert histogram.max_value == 0.003

    def test_percentiles_bound_samples(self):
        histogram = LatencyHistogram()
        for _ in range(90):
            histogram.record(0.001)   # fast decompressions
        for _ in range(10):
            histogram.record(0.030)   # disk seeks
        p50 = histogram.percentile(50)
        p99 = histogram.percentile(99)
        assert p50 <= 0.003           # within a bucket of 1 ms
        assert p99 >= 0.015           # the tail is the disk

    def test_summary_keys(self):
        histogram = LatencyHistogram()
        histogram.record(0.01)
        summary = histogram.summary()
        assert set(summary) == {
            "samples", "mean_ms", "p50_ms", "p90_ms", "p99_ms", "max_ms",
        }

    def test_validation(self):
        with pytest.raises(ValueError):
            LatencyHistogram(smallest=0)
        with pytest.raises(ValueError):
            LatencyHistogram().record(-1.0)
        with pytest.raises(ValueError):
            LatencyHistogram().percentile(150)

    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(
        st.floats(min_value=0.0, max_value=100.0,
                  allow_nan=False, allow_infinity=False),
        min_size=1, max_size=200,
    ))
    def test_percentile_upper_bounds_true_quantile(self, values):
        histogram = LatencyHistogram()
        for value in values:
            histogram.record(value)
        ordered = sorted(values)
        for p in (50.0, 90.0, 99.0):
            index = min(len(ordered) - 1,
                        max(0, int(p / 100.0 * len(ordered) + 0.999) - 1))
            true_quantile = ordered[index]
            # Bucketed percentile never under-reports by more than the
            # bucket floor.
            assert histogram.percentile(p) >= min(
                true_quantile, histogram.smallest
            ) / histogram.base

    def test_nonzero_buckets(self):
        histogram = LatencyHistogram()
        histogram.record(0.001)
        histogram.record(0.001)
        histogram.record(1.0)
        buckets = histogram.nonzero_buckets()
        assert sum(count for _, count in buckets) == 3

    def test_memory_does_not_grow_with_distinct_samples(self):
        """O(#buckets) as documented: no per-value state (a value->bucket
        memo here once grew by an entry every 3-4 faults, forever)."""
        import sys

        def footprint(histogram):
            return {name: (len(value) if hasattr(value, "__len__")
                           else sys.getsizeof(value))
                    for name, value in vars(histogram).items()}

        histogram = LatencyHistogram()
        histogram.record(1e-3)
        before = footprint(histogram)
        for n in range(50_000):
            histogram.record(1e-6 + n * 1.7e-7)
        assert histogram.samples == 50_001
        assert footprint(histogram) == before


class TestFaultLatencyIntegration:
    def test_cache_collapses_median_fault_latency(self):
        """The compression cache's signature: p50 falls from a disk seek
        to a decompression; the deep tail only moves if I/O vanishes."""
        from repro.mem.page import mbytes
        from repro.sim.engine import SimulationEngine
        from repro.sim.machine import Machine, MachineConfig
        from repro.workloads import Thrasher

        latencies = {}
        for compression_cache in (False, True):
            workload = Thrasher(mbytes(1.2), cycles=3, write=True)
            machine = Machine(
                MachineConfig(memory_bytes=mbytes(0.5),
                              compression_cache=compression_cache),
                workload.build(),
            )
            result = SimulationEngine(machine).run(workload.references())
            latencies[compression_cache] = result.metrics_snapshot[
                "fault_latency"
            ]
        assert latencies[True]["p50_ms"] < latencies[False]["p50_ms"] / 3
        assert latencies[True]["mean_ms"] < latencies[False]["mean_ms"]
