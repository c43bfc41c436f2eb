"""Fragment store: padding, batching, spanning, GC."""

import pytest

from repro.mem.page import PageId
from repro.storage.blockfs import BlockFileSystem
from repro.storage.disk import DiskModel
from repro.storage.fragstore import FragmentStore


def make_store(**kwargs):
    fs = BlockFileSystem(DiskModel.rz57())
    return FragmentStore(fs, **kwargs)


class TestRoundTrip:
    def test_put_get(self):
        store = make_store()
        payload = b"C" * 1500
        store.put(PageId(0, 1), payload)
        restored, _, _ = store.get(PageId(0, 1))
        assert restored == payload

    def test_get_after_flush(self):
        store = make_store()
        payload = b"D" * 900
        store.put(PageId(0, 1), payload)
        store.flush()
        restored, seconds, _ = store.get(PageId(0, 1))
        assert restored == payload
        assert seconds > 0  # had to hit the device

    def test_unflushed_get_is_free(self):
        store = make_store()
        store.put(PageId(0, 1), b"E" * 100)
        _, seconds, _ = store.get(PageId(0, 1))
        assert seconds == 0.0

    def test_many_pages(self):
        store = make_store()
        payloads = {
            PageId(0, n): bytes([n]) * (500 + 37 * n) for n in range(40)
        }
        for page_id, payload in payloads.items():
            store.put(page_id, payload)
        store.flush()
        for page_id, payload in payloads.items():
            assert store.get(page_id)[0] == payload

    def test_peek_matches_get(self):
        store = make_store()
        store.put(PageId(0, 2), b"F" * 700)
        store.flush()
        assert store.peek(PageId(0, 2)) == store.get(PageId(0, 2))[0]

    def test_peek_matches_get_in_staging_batch(self):
        # The prefetch path may serve a page that has not been flushed
        # yet; peek's memoryview slicing of the staging buffer must hand
        # back exactly the bytes get() would, as a real ``bytes`` object.
        store = make_store()
        payloads = {
            PageId(0, n): bytes([0x40 + n]) * (300 + 111 * n)
            for n in range(4)
        }
        for page_id, payload in payloads.items():
            store.put(page_id, payload)
        for page_id, payload in payloads.items():
            peeked = store.peek(page_id)
            assert type(peeked) is bytes
            assert peeked == payload
            got, seconds, _ = store.get(page_id)
            assert type(got) is bytes
            assert got == peeked
            assert seconds == 0.0  # staged data costs no I/O

    def test_missing_page_raises(self):
        store = make_store()
        with pytest.raises(KeyError):
            store.get(PageId(0, 99))
        with pytest.raises(KeyError):
            store.peek(PageId(0, 99))

    def test_empty_payload_rejected(self):
        store = make_store()
        with pytest.raises(ValueError):
            store.put(PageId(0, 0), b"")


class TestFragmentsAndPadding:
    def test_padded_to_fragment_size(self):
        """Section 4.3: pads each compressed page to 1 KByte fragments."""
        store = make_store()
        store.put(PageId(0, 1), b"x" * 100)
        location = store.location(PageId(0, 1))
        assert location.padded_bytes == 1024
        assert store.counters.padding_bytes == 924

    def test_exact_fragment_no_padding(self):
        store = make_store()
        store.put(PageId(0, 1), b"x" * 2048)
        assert store.location(PageId(0, 1)).padded_bytes == 2048

    def test_fragment_size_must_divide_block(self):
        fs = BlockFileSystem(DiskModel.rz57())
        with pytest.raises(ValueError):
            FragmentStore(fs, fragment_size=1000)


class TestBatching:
    def test_flush_at_batch_boundary(self):
        """32 KBytes of compressed pages are written at once."""
        store = make_store()
        for n in range(31):
            seconds = store.put(PageId(0, n), b"y" * 1024)
            assert seconds == 0.0
        seconds = store.put(PageId(0, 31), b"y" * 1024)  # 32 KBytes now
        assert seconds > 0.0
        assert store.counters.batch_flushes == 1

    def test_batched_write_is_single_operation(self):
        store = make_store()
        for n in range(32):
            store.put(PageId(0, n), b"y" * 1024)
        assert store.fs.device.counters.writes == 1


class TestSpanning:
    def test_spanning_page_costs_two_blocks(self):
        """A page crossing a block boundary turns a 4-KByte read into 8."""
        store = make_store()
        store.put(PageId(0, 0), b"a" * 3000)   # frags 0-2
        store.put(PageId(0, 1), b"b" * 3000)   # frags 3-5, spans blocks
        store.flush()
        before = store.fs.device.counters.bytes_read
        store.get(PageId(0, 1))
        assert store.fs.device.counters.bytes_read - before == 8192

    def test_no_spanning_inserts_gaps(self):
        store = make_store(allow_spanning=False)
        store.put(PageId(0, 0), b"a" * 3000)
        store.put(PageId(0, 1), b"b" * 3000)  # would span; skips to next block
        location = store.location(PageId(0, 1))
        assert location.offset == 4096
        assert store.counters.spanning_skips == 1

    def test_no_spanning_single_block_reads(self):
        store = make_store(allow_spanning=False)
        store.put(PageId(0, 0), b"a" * 3000)
        store.put(PageId(0, 1), b"b" * 3000)
        store.flush()
        before = store.fs.device.counters.bytes_read
        store.get(PageId(0, 1))
        assert store.fs.device.counters.bytes_read - before == 4096


class TestColocation:
    def test_colocated_pages_reported(self):
        store = make_store()
        store.put(PageId(0, 0), b"a" * 1024)
        store.put(PageId(0, 1), b"b" * 1024)
        store.put(PageId(0, 2), b"c" * 1024)
        store.put(PageId(0, 3), b"d" * 1024)
        store.flush()
        _, _, colocated = store.get(PageId(0, 0))
        assert set(colocated) == {PageId(0, 1), PageId(0, 2), PageId(0, 3)}

    def test_far_pages_not_colocated(self):
        store = make_store()
        store.put(PageId(0, 0), b"a" * 4096)
        store.put(PageId(0, 1), b"b" * 4096)
        store.flush()
        _, _, colocated = store.get(PageId(0, 0))
        assert colocated == []


class TestGarbageCollection:
    def test_rewrite_creates_garbage(self):
        store = make_store()
        store.put(PageId(0, 0), b"v1" * 512)
        store.put(PageId(0, 0), b"v2" * 512)
        assert store.garbage_fraction > 0.0

    def test_free_counts_garbage(self):
        store = make_store()
        store.put(PageId(0, 0), b"a" * 1024)
        store.free(PageId(0, 0))
        assert not store.contains(PageId(0, 0))
        assert store.counters.garbage_bytes_created == 1024

    def test_collect_compacts(self):
        store = make_store(gc_min_bytes=0)
        for n in range(16):
            store.put(PageId(0, n), bytes([n]) * 1024)
        for n in range(0, 16, 2):
            store.free(PageId(0, n))
        store.maybe_collect(force=True)
        assert store.garbage_fraction == 0.0
        assert store.file_bytes == 8 * 1024
        for n in range(1, 16, 2):
            assert store.get(PageId(0, n))[0] == bytes([n]) * 1024

    def test_collect_threshold(self):
        store = make_store(gc_min_bytes=0)
        store.put(PageId(0, 0), b"a" * 1024)
        store.put(PageId(0, 1), b"b" * 1024)
        assert store.maybe_collect() == 0.0  # no garbage yet
        store.free(PageId(0, 0))
        store.free(PageId(0, 1))
        store.put(PageId(0, 2), b"c" * 1024)
        assert store.garbage_fraction > 0.5
        seconds = store.maybe_collect()
        assert store.counters.gc_runs == 1
        assert store.get(PageId(0, 2))[0] == b"c" * 1024

    def test_collect_empty_store(self):
        store = make_store(gc_min_bytes=0)
        store.put(PageId(0, 0), b"a" * 1024)
        store.free(PageId(0, 0))
        store.maybe_collect(force=True)
        assert store.file_bytes == 0

    def test_invalid_thresholds(self):
        fs = BlockFileSystem(DiskModel.rz57())
        with pytest.raises(ValueError):
            FragmentStore(fs, batch_bytes=100)


class TestMissingFragmentError:
    """Unknown/reclaimed pages raise a typed, annotated KeyError subclass."""

    def test_get_raises_missing_fragment_error(self):
        from repro.faults.errors import MissingFragmentError

        store = make_store()
        with pytest.raises(MissingFragmentError) as excinfo:
            store.get(PageId(0, 99))
        assert excinfo.value.page_id == PageId(0, 99)
        assert excinfo.value.gc_generation == 0
        assert "generation" in str(excinfo.value)

    def test_peek_raises_missing_fragment_error(self):
        from repro.faults.errors import MissingFragmentError

        store = make_store()
        with pytest.raises(MissingFragmentError):
            store.peek(PageId(0, 99))

    def test_carries_gc_generation(self):
        from repro.faults.errors import MissingFragmentError

        store = make_store(gc_min_bytes=0)
        store.put(PageId(0, 0), b"a" * 1024)
        store.free(PageId(0, 0))
        store.maybe_collect(force=True)
        with pytest.raises(MissingFragmentError) as excinfo:
            store.get(PageId(0, 0))
        assert excinfo.value.gc_generation == 1

    def test_is_a_key_error(self):
        """Legacy ``except KeyError`` callers keep working."""
        from repro.faults.errors import MissingFragmentError

        assert issubclass(MissingFragmentError, KeyError)
