"""The compressed file buffer cache (Section 6 extension)."""

import pytest

from repro.compression import CompressionSampler, create
from repro.mem.frames import FramePool
from repro.sim.costs import CostModel
from repro.sim.ledger import Ledger, TimeCategory
from repro.storage.blockfs import BlockFileSystem
from repro.storage.buffercache import BufferCache
from repro.storage.compressed_buffercache import CompressedBufferCache
from repro.storage.disk import DiskModel
from repro.workloads.contentgen import dp_band_values, incompressible


def make_cache(nframes=8, fill=None, **kwargs):
    fs = BlockFileSystem(DiskModel.rz57())
    handle = fs.open("data")
    generator = fill if fill is not None else dp_band_values
    for block in range(64):
        fs.write(handle, block * 4096, generator(block))
    frames = FramePool(nframes)
    ledger = Ledger()
    cache = CompressedBufferCache(
        fs,
        frames,
        CompressionSampler(create("lzrw1")),
        ledger,
        CostModel(),
        **kwargs,
    )
    return cache, fs, handle, frames, ledger


class TestTiering:
    def test_miss_then_front_hit(self):
        cache, fs, handle, _, _ = make_cache()
        cache.access(handle, 0, now=0.0)
        cache.access(handle, 0, now=1.0)
        assert cache.counters.misses == 1
        assert cache.counters.front_hits == 1

    def test_demotion_to_compressed_tier(self):
        cache, fs, handle, _, _ = make_cache(nframes=4)
        for block in range(6):
            cache.access(handle, block, now=float(block))
        assert cache.compressed_blocks > 0
        assert cache.counters.compressions > 0

    def test_compressed_hit_avoids_io(self):
        cache, fs, handle, _, ledger = make_cache(nframes=4)
        for block in range(6):
            cache.access(handle, block, now=float(block))
        # Block 0 was demoted; touching it again must not hit the disk.
        reads_before = fs.device.counters.reads
        decompress_before = ledger.total(TimeCategory.DECOMPRESS)
        cache.access(handle, 0, now=10.0)
        if cache.counters.compressed_hits:
            assert fs.device.counters.reads == reads_before
            assert ledger.total(TimeCategory.DECOMPRESS) > decompress_before

    def test_incompressible_blocks_rejected(self):
        cache, fs, handle, _, _ = make_cache(nframes=4, fill=incompressible)
        for block in range(10):
            cache.access(handle, block, now=float(block))
        assert cache.compressed_blocks == 0
        assert cache.counters.rejected_blocks > 0

    def test_dirty_blocks_written_back_eventually(self):
        cache, fs, handle, _, _ = make_cache(nframes=3,
                                             fill=incompressible)
        for block in range(8):
            cache.access(handle, block, now=float(block), write=True)
        # Incompressible dirty blocks miss the threshold and write back.
        assert cache.counters.writebacks > 0

    def test_flush_writes_both_tiers(self):
        cache, fs, handle, _, _ = make_cache(nframes=4)
        for block in range(6):
            cache.access(handle, block, now=float(block), write=True)
        cache.flush()
        # Everything dirty reached the device.
        assert cache.counters.writebacks >= 1


class TestCapacityEffect:
    def test_higher_hit_rate_than_plain_cache(self):
        """The extension's entire point: more blocks cached per frame."""
        import random

        def workload(access):
            rng = random.Random(42)
            for step in range(800):
                # Zipf-ish reuse over 24 blocks with 8 frames.
                block = (rng.randrange(8) if rng.random() < 0.35
                         else rng.randrange(24))
                access(block, float(step))

        compressed, fs1, handle1, _, _ = make_cache(nframes=8)
        workload(lambda b, t: compressed.access(handle1, b, t))

        fs2 = BlockFileSystem(DiskModel.rz57())
        handle2 = fs2.open("data")
        for block in range(64):
            fs2.write(handle2, block * 4096, dp_band_values(block))
        plain = BufferCache(fs2, FramePool(8))
        hits = misses = 0
        def plain_access(block, t):
            nonlocal hits, misses
            plain.access(handle2, block, t)
        workload(plain_access)

        assert compressed.counters.hit_rate > plain.counters.hit_rate

    def test_frame_accounting_reconciles(self):
        cache, _, handle, frames, _ = make_cache(nframes=6)
        for block in range(12):
            cache.access(handle, block, now=float(block))
        from repro.mem.frames import FrameOwner

        assert (
            frames.owned_by(FrameOwner.FILE_CACHE)
            == cache.total_frames_held
        )
        assert cache.total_frames_held <= 6

    def test_compressed_fraction_bounded(self):
        cache, _, handle, _, _ = make_cache(
            nframes=8, max_compressed_fraction=0.25
        )
        for block in range(40):
            cache.access(handle, block, now=float(block))
        assert cache._compressed_frames_held <= max(
            1, int(cache.total_frames_held * 0.25)
        ) + 1

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            make_cache(max_compressed_fraction=1.5)


class TestShrink:
    def test_shrink_gives_back_a_frame(self):
        cache, _, handle, frames, _ = make_cache(nframes=6)
        for block in range(6):
            cache.access(handle, block, now=float(block))
        free_before = frames.free_frames
        assert cache.shrink_one() is not None
        assert frames.free_frames > free_before

    def test_shrink_empty_returns_none(self):
        cache, _, _, _, _ = make_cache()
        assert cache.shrink_one() is None

    def test_coldest_age(self):
        cache, _, handle, _, _ = make_cache()
        assert cache.coldest_age(0.0) is None
        cache.access(handle, 0, now=5.0)
        assert cache.coldest_age(10.0) == pytest.approx(5.0)

    def test_demoted_block_keeps_the_callers_clock(self):
        """The compressed tier's age is on the clock the caller passes,
        not the ledger's: block (0, 0), last touched at t=100 and then
        demoted, is 6 s old at t=106."""
        cache, _, handle, _, ledger = make_cache(nframes=4)
        for block in range(6):
            cache.access(handle, block, now=100.0 + block)
        assert (handle.file_id, 0) in cache._compressed
        assert ledger.now < 1.0  # the two clocks are far apart
        assert cache.coldest_age(106.0) == pytest.approx(6.0)
