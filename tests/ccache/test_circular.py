"""The circular-buffer compression cache."""

import pytest

from repro.ccache.circular import CompressionCache
from repro.ccache.header import SlotState
from repro.mem.frames import FrameOwner, FramePool
from repro.mem.page import PageId
from repro.sim.ledger import Ledger
from repro.storage.blockfs import BlockFileSystem
from repro.storage.disk import DiskModel
from repro.storage.fragstore import FragmentStore


def make_cache(nframes=8, **kwargs):
    frames = FramePool(nframes)
    fs = BlockFileSystem(DiskModel.rz57())
    fragstore = FragmentStore(fs)
    ledger = Ledger()
    cache = CompressionCache(frames, fragstore, ledger, **kwargs)
    return cache, frames, fragstore, ledger


def pid(n):
    return PageId(0, n)


class TestInsertFetch:
    def test_round_trip(self):
        cache, _, _, _ = make_cache()
        cache.insert(pid(1), b"hello" * 100, dirty=True, now=0.0)
        payload, dirty = cache.fetch(pid(1))
        assert payload == b"hello" * 100
        assert dirty
        assert pid(1) not in cache

    def test_fetch_keep(self):
        cache, _, _, _ = make_cache()
        cache.insert(pid(1), b"x" * 64, dirty=False, now=0.0,
                     on_backing_store=True)
        payload, _ = cache.fetch(pid(1), remove=False)
        assert payload == b"x" * 64
        assert pid(1) in cache

    def test_duplicate_insert_rejected(self):
        cache, _, _, _ = make_cache()
        cache.insert(pid(1), b"a" * 10, dirty=True, now=0.0)
        with pytest.raises(ValueError):
            cache.insert(pid(1), b"b" * 10, dirty=True, now=0.0)

    def test_empty_payload_rejected(self):
        cache, _, _, _ = make_cache()
        with pytest.raises(ValueError):
            cache.insert(pid(1), b"", dirty=True, now=0.0)

    def test_drop(self):
        cache, _, _, _ = make_cache()
        cache.insert(pid(1), b"z" * 32, dirty=False, now=0.0,
                     on_backing_store=True)
        cache.drop(pid(1))
        assert pid(1) not in cache
        with pytest.raises(KeyError):
            cache.drop(pid(1))

    def test_entry_version_tracked(self):
        cache, _, _, _ = make_cache()
        cache.insert(pid(1), b"v" * 16, dirty=True, now=0.0,
                     content_version=42)
        assert cache.entries[pid(1)].content_version == 42

    def test_entries_pack_densely(self):
        """Compressed pages pack one after another with 36-byte headers."""
        cache, _, _, _ = make_cache()
        for n in range(4):
            cache.insert(pid(n), b"d" * 1000, dirty=True, now=0.0)
        assert cache.nframes == 2  # 4 x 1036 bytes pack into 2 frames
        assert cache.live_bytes == 4 * 1036


class TestFrameLifecycle:
    def test_frames_grow_with_inserts(self):
        cache, frames, _, _ = make_cache()
        assert cache.nframes == 0
        cache.insert(pid(1), b"a" * 3000, dirty=True, now=0.0)
        assert cache.nframes == 1
        cache.insert(pid(2), b"b" * 3000, dirty=True, now=0.0)
        assert cache.nframes == 2  # second entry spans into a new frame
        assert frames.owned_by(FrameOwner.COMPRESSION) == 2

    def test_emptied_frames_released(self):
        cache, frames, _, _ = make_cache()
        for n in range(8):
            cache.insert(pid(n), b"c" * 950, dirty=False, now=0.0,
                         on_backing_store=True)
        mapped = cache.nframes
        for n in range(8):
            cache.fetch(pid(n))
        assert cache.nframes <= 1  # only the tail frame may linger
        assert frames.owned_by(FrameOwner.COMPRESSION) <= 1
        assert cache.counters.frames_released >= mapped - 1

    def test_oldest_age(self):
        cache, _, _, _ = make_cache()
        assert cache.coldest_age(5.0) is None
        cache.insert(pid(1), b"a" * 10, dirty=True, now=2.0)
        cache.insert(pid(2), b"b" * 10, dirty=True, now=4.0)
        assert cache.coldest_age(5.0) == pytest.approx(3.0)


class TestSlotStates:
    def test_figure2_states(self):
        cache, _, _, _ = make_cache()
        cache.insert(pid(1), b"a" * 3000, dirty=True, now=0.0)
        cache.insert(pid(2), b"b" * 3000, dirty=False, now=0.0,
                     on_backing_store=True)
        states = cache.slot_states()
        assert SlotState.DIRTY in states.values()
        # After cleaning, the dirty slots become clean.
        cache.clean_pages(10)
        states = cache.slot_states()
        assert SlotState.DIRTY not in states.values()

    def test_unmapped_slot_is_free(self):
        cache, _, _, _ = make_cache()
        assert cache.slot_state(99) == SlotState.FREE


class TestCleaning:
    def test_clean_pages_writes_oldest_dirty(self):
        cache, _, fragstore, _ = make_cache()
        cache.insert(pid(1), b"a" * 500, dirty=True, now=0.0)
        cache.insert(pid(2), b"b" * 500, dirty=True, now=1.0)
        written = cache.clean_pages(1)
        assert written == 1
        assert fragstore.contains(pid(1))       # oldest first
        assert not fragstore.contains(pid(2))
        assert not cache.entries[pid(1)].dirty
        assert cache.entries[pid(2)].dirty

    def test_clean_pages_respects_limit(self):
        cache, _, _, _ = make_cache()
        for n in range(6):
            cache.insert(pid(n), b"x" * 200, dirty=True, now=0.0)
        assert cache.clean_pages(4) == 4
        assert cache.dirty_pages() == 2

    def test_clean_charged_to_ledger(self):
        from repro.sim.ledger import TimeCategory

        cache, _, _, ledger = make_cache()
        for n in range(40):
            cache.insert(pid(n), b"y" * 1020, dirty=True, now=0.0)
        cache.clean_pages(40)
        assert ledger.total(TimeCategory.CLEANER) > 0.0

    def test_written_callback_invoked(self):
        cache, _, _, _ = make_cache()
        calls = []
        cache.written_callback = lambda page, version: calls.append(
            (page, version)
        )
        cache.insert(pid(3), b"z" * 100, dirty=True, now=0.0,
                     content_version=7)
        cache.clean_pages(1)
        assert calls == [(pid(3), 7)]


class TestShrink:
    def test_shrink_clean_frame_is_free(self):
        cache, frames, _, ledger = make_cache()
        for n in range(8):
            cache.insert(pid(n), b"c" * 950, dirty=False, now=0.0,
                         on_backing_store=True)
        nframes = cache.nframes
        busy_before = ledger.total()
        assert cache.shrink_one() is not None
        assert cache.nframes < nframes
        assert ledger.total() == busy_before  # no I/O for clean data

    def test_shrink_dirty_frame_writes_out(self):
        cache, _, fragstore, _ = make_cache()
        for n in range(8):
            cache.insert(pid(n), b"d" * 950, dirty=True, now=0.0)
        assert cache.shrink_one() is not None
        assert fragstore.counters.pages_put >= 1
        assert cache.counters.evicted_dirty_pages >= 1

    def test_shrink_prefers_clean_frames(self):
        cache, _, fragstore, _ = make_cache()
        # Frame 0: dirty entries; frame 1: clean entries.
        cache.insert(pid(1), b"a" * 4000, dirty=True, now=0.0)
        cache.insert(pid(2), b"b" * 3800, dirty=False, now=0.0,
                     on_backing_store=True)
        cache.insert(pid(3), b"c" * 3800, dirty=False, now=0.0,
                     on_backing_store=True)
        puts_before = fragstore.counters.pages_put
        cache.shrink_one()
        # A clean frame was chosen: nothing was written out.
        assert fragstore.counters.pages_put == puts_before

    def test_cannot_shrink_tail_only(self):
        cache, _, _, _ = make_cache()
        cache.insert(pid(1), b"t" * 100, dirty=True, now=0.0)
        assert cache.shrink_one() is None

    def test_empty_cache_cannot_shrink(self):
        cache, _, _, _ = make_cache()
        assert cache.shrink_one() is None


class TestFixedSize:
    def test_max_frames_enforced(self):
        """Section 4.2's original fixed-size prototype."""
        cache, _, _, _ = make_cache(nframes=16, max_frames=2)
        for n in range(20):
            cache.insert(pid(n), b"f" * 1000, dirty=True, now=float(n))
        assert cache.nframes <= 2

    def test_invalid_max_frames(self):
        with pytest.raises(ValueError):
            make_cache(max_frames=0)


class TestReclaimableAccounting:
    def test_counts_match_ground_truth(self):
        cache, _, _, _ = make_cache(nframes=32)
        for n in range(12):
            cache.insert(pid(n), bytes([n]) * (300 + 251 * (n % 5)),
                         dirty=(n % 3 != 0), now=float(n))
        cache.clean_pages(3)
        for n in (1, 5, 7):
            cache.fetch(pid(n))
        _assert_accounting(cache)

    def test_dirty_pages_counter(self):
        cache, _, _, _ = make_cache()
        cache.insert(pid(1), b"a" * 10, dirty=True, now=0.0)
        cache.insert(pid(2), b"b" * 10, dirty=False, now=0.0,
                     on_backing_store=True)
        assert cache.dirty_pages() == 1
        cache.clean_pages(5)
        assert cache.dirty_pages() == 0


def _assert_accounting(cache):
    """Compare incremental counters against recomputed ground truth."""
    true_dirty_entries = sum(
        1 for e in cache.entries.values() if e.dirty
    )
    assert cache._dirty_entries == true_dirty_entries
    for index, slot in cache._frames.items():
        true_pages = {
            p for p, e in cache.entries.items()
            if e.offset // cache.page_size <= index
            <= (e.offset + e.footprint - 1) // cache.page_size
        }
        assert set(slot.pages) == true_pages, f"frame {index} pages"
        # shrink_one consumes slot.pages in registration order and
        # depends on it being ascending by entry offset.
        offsets = [cache.entries[p].offset for p in slot.pages]
        assert offsets == sorted(offsets), f"frame {index} page order"
        true_dirty = sum(
            1 for p in true_pages if cache.entries[p].dirty
        )
        assert slot.dirty_pages == true_dirty, f"frame {index} dirty"
    true_dirty_frames = sum(
        1 for s in cache._frames.values() if s.dirty_pages > 0
    )
    assert cache._dirty_frames == true_dirty_frames
    # The cache's own recount must agree with this one.
    cache.check_invariants()
