"""Log-structured file system: log semantics, cleaning, costs."""

import pytest

from repro.storage.disk import DiskModel
from repro.storage.lfs import LogStructuredFS


def make_lfs(**kwargs):
    kwargs.setdefault("segment_blocks", 8)
    kwargs.setdefault("total_segments", 16)
    return LogStructuredFS(DiskModel.rz57(), **kwargs)


class TestDataFidelity:
    def test_write_read_round_trip(self):
        lfs = make_lfs()
        f = lfs.open("data")
        payload = bytes(range(256)) * 16
        lfs.write(f, 0, payload)
        data, _ = lfs.read(f, 0, 4096)
        assert data == payload

    def test_overwrite_returns_newest(self):
        lfs = make_lfs()
        f = lfs.open("data")
        lfs.write(f, 0, b"1" * 4096)
        lfs.write(f, 0, b"2" * 4096)
        lfs.flush()
        data, _ = lfs.read(f, 0, 4096)
        assert data == b"2" * 4096

    def test_partial_write_merges(self):
        lfs = make_lfs()
        f = lfs.open("data")
        lfs.write(f, 0, b"A" * 4096)
        lfs.write(f, 1000, b"B" * 100)
        data, _ = lfs.read(f, 0, 4096)
        assert data[999:1101] == b"A" + b"B" * 100 + b"A"

    def test_holes_read_as_zeros(self):
        lfs = make_lfs()
        f = lfs.open("data")
        lfs.write(f, 8192, b"X" * 4096)
        data, _ = lfs.read(f, 0, 4096)
        assert data == bytes(4096)

    def test_peek_matches_read(self):
        lfs = make_lfs()
        f = lfs.open("data")
        lfs.write(f, 0, b"P" * 6000)
        assert lfs.peek(f, 100, 500) == lfs.read(f, 100, 500)[0]

    def test_truncate(self):
        lfs = make_lfs()
        f = lfs.open("data")
        lfs.write(f, 0, b"T" * 8192)
        lfs.truncate(f, 4096)
        data, _ = lfs.read(f, 4096, 4096)
        assert data == bytes(4096)

    def test_survives_many_random_updates(self, rng):
        """Random writes against a reference model."""
        lfs = make_lfs(segment_blocks=4, total_segments=64)
        f = lfs.open("data")
        model = bytearray(16 * 4096)
        for _ in range(200):
            offset = rng.randrange(0, len(model) - 512)
            size = rng.randrange(1, 512)
            payload = bytes(rng.randrange(256) for _ in range(size))
            lfs.write(f, offset, payload)
            model[offset : offset + size] = payload
        lfs.flush()
        data, _ = lfs.read(f, 0, len(model))
        assert data == bytes(model)


class TestLogBehaviour:
    def test_writes_buffer_until_segment_fills(self):
        lfs = make_lfs(segment_blocks=8)
        f = lfs.open("swap")
        for block in range(7):
            lfs.write(f, block * 4096, b"W" * 4096)
        assert lfs.counters.segments_written == 0
        lfs.write(f, 7 * 4096, b"W" * 4096)
        assert lfs.counters.segments_written == 1

    def test_segment_write_is_single_operation(self):
        lfs = make_lfs(segment_blocks=8)
        f = lfs.open("swap")
        for block in range(8):
            lfs.write(f, block * 4096, b"W" * 4096)
        assert lfs.device.counters.writes == 1

    def test_small_writes_cheaper_than_update_in_place(self):
        """LFS: "much higher bandwidth by coalescing many small writes
        into a single larger transfer"."""
        from repro.storage.blockfs import BlockFileSystem

        def cost(fs):
            f = fs.open("swap")
            return sum(
                fs.write(f, block * 4096, b"W" * 4096)
                for block in range(32)
            ) + (fs.flush() if hasattr(fs, "flush") else 0.0)

        lfs_cost = cost(make_lfs(segment_blocks=8, total_segments=32))
        ufs_cost = cost(BlockFileSystem(DiskModel.rz57()))
        assert lfs_cost < ufs_cost / 2

    def test_buffered_blocks_read_free(self):
        lfs = make_lfs(segment_blocks=8)
        f = lfs.open("swap")
        lfs.write(f, 0, b"R" * 4096)
        data, seconds = lfs.read(f, 0, 4096)
        assert seconds == 0.0  # still in the segment buffer

    def test_flushed_blocks_cost_a_read(self):
        lfs = make_lfs(segment_blocks=2)
        f = lfs.open("swap")
        lfs.write(f, 0, b"R" * 4096)
        lfs.write(f, 4096, b"R" * 4096)
        # Drop the simulated in-memory copies to model a cold cache.
        f.blocks.clear()
        _, seconds = lfs.read(f, 0, 4096)
        assert seconds > 0.0


class TestCleaner:
    def test_cleaning_reclaims_partially_dead_segments(self):
        lfs = make_lfs(segment_blocks=4, total_segments=6, clean_reserve=2)
        f = lfs.open("swap")
        # Long-lived blocks interleaved with churn leave every segment
        # partially live: only the cleaner can reclaim the dead space.
        for block in range(16):
            lfs.write(f, block * 4096, bytes([255 - block]) * 4096)
        for round_number in range(10):
            for block in range(0, 16, 2):  # rewrite the even blocks
                lfs.write(f, block * 4096, bytes([round_number]) * 4096)
        assert lfs.counters.segments_cleaned > 0
        assert lfs.free_segments >= 1
        # Untouched odd blocks survived the cleaner's copies.
        data, _ = lfs.read(f, 3 * 4096, 4096)
        assert data == bytes([255 - 3]) * 4096
        data, _ = lfs.read(f, 2 * 4096, 4096)
        assert data == bytes([9]) * 4096

    def test_cleaner_copies_live_blocks(self):
        lfs = make_lfs(segment_blocks=4, total_segments=6, clean_reserve=2)
        f = lfs.open("swap")
        # Fill with long-lived data plus churn; live blocks must survive
        # cleaning.
        lfs.write(f, 0, b"L" * 4096 * 4)
        for round_number in range(12):
            lfs.write(f, 4 * 4096, bytes([round_number]) * 4096 * 4)
        assert lfs.counters.live_blocks_copied >= 0
        data, _ = lfs.read(f, 0, 4096 * 4)
        assert data == b"L" * 4096 * 4

    def test_utilization_tracking(self):
        lfs = make_lfs(segment_blocks=4)
        f = lfs.open("swap")
        for block in range(4):
            lfs.write(f, block * 4096, b"U" * 4096)
        assert lfs.utilization() == pytest.approx(1.0)
        lfs.write(f, 0, b"V" * 4096)  # kills one on-disk block
        assert lfs.utilization() == pytest.approx(0.75)

    def test_full_disk_raises(self):
        lfs = make_lfs(segment_blocks=2, total_segments=4, clean_reserve=1)
        f = lfs.open("swap")
        with pytest.raises(RuntimeError):
            for block in range(64):
                lfs.write(f, block * 4096, b"F" * 4096)


class TestGeometryValidation:
    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            LogStructuredFS(DiskModel.rz57(), segment_blocks=0)
        with pytest.raises(ValueError):
            LogStructuredFS(DiskModel.rz57(), total_segments=1)
        with pytest.raises(ValueError):
            LogStructuredFS(DiskModel.rz57(), clean_reserve=0)


class TestAsBackingStore:
    def test_standard_swap_on_lfs(self):
        from repro.mem.page import PageId
        from repro.storage.swap import StandardSwap

        swap = StandardSwap(make_lfs(segment_blocks=4, total_segments=64))
        for n in range(8):
            swap.write_page(PageId(0, n), bytes([n]) * 4096)
        swap.fs.flush()
        for n in range(8):
            assert swap.read_page(PageId(0, n))[0] == bytes([n]) * 4096

    def test_fragment_store_on_lfs(self):
        from repro.mem.page import PageId
        from repro.storage.fragstore import FragmentStore

        store = FragmentStore(make_lfs(segment_blocks=4, total_segments=64))
        for n in range(12):
            store.put(PageId(0, n), bytes([n + 1]) * (700 + n * 31))
        store.flush()
        for n in range(12):
            assert store.get(PageId(0, n))[0] == bytes([n + 1]) * (700 + n * 31)


class TestSharedFileSurface:
    """``open``, ``peek`` and the range check are ``BlockFileSystem``'s;
    opened, written, peeked and truncated side by side, the two file
    systems agree on bytes."""

    def test_namespace_and_peek_are_inherited(self):
        from repro.storage.blockfs import BlockFileSystem

        assert issubclass(LogStructuredFS, BlockFileSystem)
        for name in ("open", "peek", "_check_range"):
            assert name not in vars(LogStructuredFS)
        for name in ("read", "write", "truncate", "flush"):
            assert name in vars(LogStructuredFS)

    def test_agrees_with_block_fs_on_bytes(self):
        import random

        from repro.storage.blockfs import BlockFileSystem

        rng = random.Random(21)
        systems = [BlockFileSystem(DiskModel.rz57()), make_lfs()]
        files = [fs.open("data") for fs in systems]
        assert [fs.open("data") for fs in systems] == files  # same handle
        assert {f.file_id for f in files} == {0}
        assert {fs.open("other").file_id for fs in systems} == {1}

        def everywhere(call):
            results = [call(fs, f) for fs, f in zip(systems, files)]
            assert results[0] == results[1]
            return results[0]

        for step in range(200):
            offset = rng.randrange(0, 10 * 4096)
            nbytes = rng.choice((0, 1, 100, 4096, 5000, 9000))
            if step % 50 == 49:
                size = rng.randrange(0, 6 * 4096)
                for fs, f in zip(systems, files):
                    fs.truncate(f, size)
            elif step % 3:
                data = rng.randbytes(nbytes)
                for fs, f in zip(systems, files):
                    fs.write(f, offset, data)
            everywhere(lambda fs, f: f.size)
            everywhere(lambda fs, f: fs.peek(f, offset, nbytes))
            everywhere(lambda fs, f: fs.read(f, offset, nbytes)[0])
        assert everywhere(lambda fs, f: fs.peek(f, 123, 0)) == b""
        for fs, f in zip(systems, files):
            with pytest.raises(ValueError, match="bad file range"):
                fs.peek(f, -1, 4)
