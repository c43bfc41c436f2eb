"""What every counter block serialises to.

The key tuples below were recorded from the hand-written ``snapshot()``
bodies before :class:`repro.counters.Counters` replaced them; keys and
their order feed ``RunResult.as_dict()``, every golden digest and the
plain ``run --faults`` listing, so they are part of the contract.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.ccache.circular import CacheCounters
from repro.control.controller import ControlCounters
from repro.counters import Counters
from repro.faults.degrade import ResilienceCounters
from repro.sim.metrics import EvictionCounters, FaultCounters
from repro.storage.blockfs import FsCounters
from repro.storage.buffercache import BufferCacheCounters
from repro.storage.compressed_buffercache import CompressedCacheCounters
from repro.storage.device import DeviceCounters
from repro.storage.fragstore import FragStoreCounters
from repro.storage.lfs import LfsCounters
from repro.storage.logstore import LogStoreCounters, RecoveryStats
from repro.storage.swap import SwapCounters

SNAPSHOT_KEYS = {
    FaultCounters: (
        "total", "from_ccache", "from_fragstore", "from_swap", "zero_fill",
    ),
    EvictionCounters: (
        "total", "compressed_kept", "uncompressible", "bypassed_gate",
        "clean_drops", "ccache_fast_drops", "raw_writes",
    ),
    CacheCounters: (
        "inserts", "fetch_hits", "drops", "frames_mapped",
        "frames_released", "evicted_dirty_pages", "evicted_clean_pages",
        "cleaned_pages",
    ),
    DeviceCounters: (
        "reads", "writes", "bytes_read", "bytes_written", "seeks",
        "busy_seconds",
    ),
    SwapCounters: ("pages_out", "pages_in"),
    FsCounters: (
        "block_reads", "block_writes", "rmw_reads", "partial_writes",
    ),
    LfsCounters: (
        "block_reads", "block_writes", "rmw_reads", "partial_writes",
        "segments_written", "segments_cleaned", "live_blocks_copied",
    ),
    BufferCacheCounters: ("hits", "misses", "writebacks", "hit_rate"),
    CompressedCacheCounters: (
        "hits", "misses", "writebacks", "compressed_hits", "compressions",
        "rejected_blocks", "hit_rate",
    ),
    FragStoreCounters: (
        "pages_put", "pages_got", "batch_flushes", "padding_bytes",
        "spanning_skips", "garbage_bytes_created", "gc_runs",
        "gc_bytes_moved",
    ),
    LogStoreCounters: (
        "pages_put", "pages_got", "tombstones", "batch_flushes",
        "append_writes", "appended_bytes", "segments_opened",
        "segments_cleaned", "cleaner_reads", "cleaner_copied_bytes",
        "clean_runs", "checkpoints_written", "garbage_bytes_created",
    ),
    RecoveryStats: (
        "recoveries", "replayed_records", "torn_records",
        "scanned_segments", "scanned_bytes", "invalid_checkpoint_slots",
    ),
    # The derived total leads: plain ``run --faults`` prints in order.
    ResilienceCounters: (
        "injected_faults", "device_read_errors", "device_write_errors",
        "latency_spikes", "latency_spike_seconds", "fragment_corruptions",
        "sticky_corruptions", "compressor_crashes",
        "compressor_expansions", "lfs_crashes", "lfs_checkpoints_lost",
        "lfs_recoveries", "retries", "retry_backoff_seconds",
        "retries_exhausted", "recovered_operations", "crc_checks",
        "crc_failures", "backstop_refetches", "deferred_writebacks",
        "cleaner_requeues", "degradation_entries", "degradation_exits",
        "bypassed_evictions",
    ),
    # ``log_limit`` is a bound, not a reading, and stays out.
    ControlCounters: (
        "ticks", "actions", "grows", "shrinks", "retunes", "probes",
        "deadband_skips", "cooldown_skips", "quiet_skips", "ratio_vetoes",
        "frames_released", "hot_deferrals", "log", "log_dropped",
    ),
}


def _all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_subclasses(sub)


def test_every_counters_subclass_is_pinned():
    shipped = {cls for cls in _all_subclasses(Counters)
               if cls.__module__.startswith("repro.")}
    assert shipped == set(SNAPSHOT_KEYS)


@pytest.mark.parametrize("cls", SNAPSHOT_KEYS, ids=lambda c: c.__name__)
def test_snapshot_keys_in_order(cls):
    snapshot = cls().snapshot()
    assert tuple(snapshot) == SNAPSHOT_KEYS[cls]
    # A fresh block reads zero everywhere (an empty action log).
    assert all(value in (0, 0.0, []) for value in snapshot.values())


def test_snapshot_reads_live_values_and_derived_properties():
    counters = BufferCacheCounters(hits=3, misses=1, writebacks=2)
    assert counters.snapshot() == {
        "hits": 3, "misses": 1, "writebacks": 2, "hit_rate": 0.75,
    }
    resilience = ResilienceCounters(latency_spikes=2, lfs_crashes=1,
                                    retries=9)
    assert resilience.snapshot()["injected_faults"] == 3
    assert LfsCounters(block_reads=4, segments_cleaned=2).snapshot() == {
        "block_reads": 4, "block_writes": 0, "rmw_reads": 0,
        "partial_writes": 0, "segments_written": 0, "segments_cleaned": 2,
        "live_blocks_copied": 0,
    }


def test_added_field_appears_in_the_snapshot():
    """The property the base exists for: a counter added to a subclass
    is reported without being named a second time."""

    @dataclass
    class Extended(FragStoreCounters):
        header_bytes: int = 0

    snapshot = Extended(pages_put=2, header_bytes=72).snapshot()
    assert tuple(snapshot) == SNAPSHOT_KEYS[FragStoreCounters] + (
        "header_bytes",
    )
    assert snapshot["header_bytes"] == 72


def test_control_log_is_copied_and_its_limit_is_not_reported():
    counters = ControlCounters(log_limit=1)
    counters.note_action(1.0, "grow", "l1", 24)
    counters.note_action(2.0, "shrink", "l1", 16)
    snapshot = counters.snapshot()
    assert counters.log_limit == 1 and "log_limit" not in snapshot
    assert snapshot["log"] == [
        {"t": 1.0, "action": "grow", "pool": "l1", "value": 24},
    ]
    assert snapshot["log_dropped"] == 1
    snapshot["log"][0]["value"] = -1
    snapshot["log"].append({})
    assert counters.log == [
        {"t": 1.0, "action": "grow", "pool": "l1", "value": 24},
    ]
