"""Cleaner policy, adaptive gate, headers/overheads."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ccache.cleaner import CleanerPolicy
from repro.ccache.header import (
    CODE_SIZE_BYTES,
    COMPRESSED_PAGE_HEADER_BYTES,
    FRAME_HEADER_BYTES,
    HASH_TABLE_BYTES,
    SLOT_DESCRIPTOR_BYTES,
    CompressedPageHeader,
    cache_metadata_bytes,
)
from repro.ccache.threshold import AdaptiveCompressionGate
from repro.mem.page import PageId


class TestCleanerPolicy:
    def test_idle_when_enough_free(self):
        policy = CleanerPolicy(free_goal_frames=8)
        assert policy.pages_to_clean(8, 0, 100) == 0
        assert policy.pages_to_clean(100, 0, 100) == 0

    def test_cleans_when_short_on_clean_frames(self):
        policy = CleanerPolicy()
        assert policy.pages_to_clean(0, 0, 100) > 0

    def test_idle_when_target_met(self):
        policy = CleanerPolicy(target_clean_fraction=0.25)
        assert policy.pages_to_clean(0, 25, 100) == 0

    def test_monotone_in_cache_size(self):
        policy = CleanerPolicy(max_batch_pages=1000)
        small = policy.pages_to_clean(0, 0, 10)
        large = policy.pages_to_clean(0, 0, 200)
        assert large >= small

    def test_anti_monotone_in_reclaimable(self):
        policy = CleanerPolicy(max_batch_pages=1000)
        none_clean = policy.pages_to_clean(0, 0, 100)
        some_clean = policy.pages_to_clean(0, 10, 100)
        assert some_clean <= none_clean

    def test_batch_cap(self):
        policy = CleanerPolicy(max_batch_pages=5)
        assert policy.pages_to_clean(0, 0, 10000) == 5

    def test_empty_cache_never_cleans(self):
        assert CleanerPolicy().pages_to_clean(0, 0, 0) == 0

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            CleanerPolicy().pages_to_clean(-1, 0, 10)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            CleanerPolicy(target_clean_fraction=1.5)

    @settings(max_examples=400, deadline=None)
    @given(
        fraction=st.floats(0.0, 1.0),
        free_goal=st.integers(0, 40),
        batch=st.integers(0, 40),
        free=st.integers(0, 60),
        reclaimable=st.integers(0, 300),
        mapped=st.integers(0, 300),
    )
    def test_idle_agrees_with_pages_to_clean(
        self, fraction, free_goal, batch, free, reclaimable, mapped
    ):
        """The O(1) idle test run after every fault answers exactly
        "would the policy clean nothing?", so skipping the policy when it
        says idle changes no decision."""
        policy = CleanerPolicy(fraction, free_goal, batch)
        assert policy.idle(free, reclaimable, mapped) == (
            policy.pages_to_clean(free, reclaimable, mapped) == 0
        )


class TestAdaptiveGate:
    def test_disabled_gate_always_open(self):
        gate = AdaptiveCompressionGate(enabled=False)
        for _ in range(200):
            gate.record(False)
        assert gate.open

    def test_closes_on_sustained_poor_compression(self):
        gate = AdaptiveCompressionGate(window=10, min_keep_rate=0.3,
                                       cooloff_pages=20)
        for _ in range(10):
            gate.record(False)
        assert not gate.open
        assert gate.times_closed == 1

    def test_stays_open_on_good_compression(self):
        gate = AdaptiveCompressionGate(window=10, min_keep_rate=0.3)
        for _ in range(50):
            gate.record(True)
        assert gate.open

    def test_reopens_after_cooloff(self):
        gate = AdaptiveCompressionGate(window=4, min_keep_rate=0.5,
                                       cooloff_pages=3)
        for _ in range(4):
            gate.record(False)
        assert not gate.open
        for _ in range(3):
            gate.note_bypass()
        assert gate.open
        assert gate.pages_bypassed == 3

    def test_needs_full_window_before_closing(self):
        gate = AdaptiveCompressionGate(window=10, min_keep_rate=0.5)
        for _ in range(9):
            gate.record(False)
        assert gate.open  # not enough samples yet

    def test_keep_rate_reporting(self):
        gate = AdaptiveCompressionGate(window=4)
        assert gate.recent_keep_rate == 1.0
        gate.record(True)
        gate.record(False)
        assert gate.recent_keep_rate == 0.5

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            AdaptiveCompressionGate(window=0)
        with pytest.raises(ValueError):
            AdaptiveCompressionGate(min_keep_rate=1.5)
        with pytest.raises(ValueError):
            AdaptiveCompressionGate(cooloff_pages=0)

    def test_snapshot_counts_probes_bypasses_and_transitions(self):
        gate = AdaptiveCompressionGate(window=4, min_keep_rate=0.5,
                                       cooloff_pages=3)
        for _ in range(4):
            gate.record(False)  # closes
        for _ in range(3):
            gate.note_bypass()  # reopens at the third bypass
        gate.record(True)
        snap = gate.snapshot()
        assert snap["enabled"] is True
        assert snap["open"] is True
        assert snap["probes"] == 5
        assert snap["pages_bypassed"] == 3
        assert snap["times_closed"] == 1
        assert snap["times_reopened"] == 1
        assert snap["window"] == 4
        assert snap["min_keep_rate"] == 0.5
        assert snap["cooloff_pages"] == 3

    def test_disabled_snapshot_counts_probes(self):
        gate = AdaptiveCompressionGate(enabled=False)
        gate.record(False)
        gate.record(True)
        snap = gate.snapshot()
        assert snap["enabled"] is False
        assert snap["probes"] == 2
        assert snap["times_closed"] == 0


class TestHeaders:
    def test_paper_constants(self):
        """Section 4.4's exact numbers."""
        assert SLOT_DESCRIPTOR_BYTES == 8
        assert FRAME_HEADER_BYTES == 24
        assert COMPRESSED_PAGE_HEADER_BYTES == 36
        assert HASH_TABLE_BYTES == 16 * 1024
        assert CODE_SIZE_BYTES == 22 * 1024

    def test_frame_header_fraction(self):
        """24 bytes per 4-KByte frame is the paper's 0.6% overhead."""
        assert FRAME_HEADER_BYTES / 4096 == pytest.approx(0.006, abs=0.001)

    def test_header_footprint(self):
        header = CompressedPageHeader(PageId(0, 1), bytes(1000), True, 0.0)
        assert header.footprint == 1036

    def test_metadata_bytes(self):
        total = cache_metadata_bytes(
            max_cache_frames=1000, mapped_frames=100, compressed_pages=300
        )
        assert total == (
            8 * 1000 + 24 * 100 + 36 * 300 + 16 * 1024
        )

    def test_metadata_validation(self):
        with pytest.raises(ValueError):
            cache_metadata_bytes(10, 11, 0)
        with pytest.raises(ValueError):
            cache_metadata_bytes(-1, 0, 0)
