"""The compressed file buffer cache (Section 6 extension)."""

import hashlib
import random

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
        assert cache.counters.hits == 1

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
        compressed_frames = cache.total_frames_held - cache.front_blocks
        assert compressed_frames <= max(
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


class TestSharedPool:
    def test_never_frees_another_caches_frame(self):
        """A plain cache holds frames 0-2 of a shared pool; the
        compressed cache, cycling 20 blocks through the other nine,
        must give back only frames it holds itself."""
        fs = BlockFileSystem(DiskModel.rz57())
        handle = fs.open("data")
        for block in range(20):
            fs.write(handle, block * 4096, dp_band_values(block))
        frames = FramePool(12)
        plain = BufferCache(fs, frames)
        for block in range(3):
            plain.access(handle, block, now=0.0)
        assert sorted(plain._frame_of.values()) == [0, 1, 2]
        compressed = CompressedBufferCache(
            fs, frames, CompressionSampler(create("lzrw1")), Ledger(),
            CostModel(),
        )
        for step in range(60):
            compressed.access(handle, step % 20, now=float(step))
            front = set(compressed._frame_of.values())
            held = front | set(compressed._tier_frames)
            assert not held & set(plain._frame_of.values()), step
            assert len(held) == compressed.total_frames_held, step
            for frame in held | set(plain._frame_of.values()):
                frames.owner_of(frame)  # raises if counted free


def _pin_fill(block):
    return incompressible(block) if block % 3 == 0 else dp_band_values(block)


def _pin_trace(seed, nframes, steps):
    """(block, write) pairs: hot set of ``nframes`` blocks, 48 in all,
    30% writes."""
    rng = random.Random(seed)
    for _ in range(steps):
        block = (rng.randrange(nframes) if rng.random() < 0.4
                 else rng.randrange(48))
        yield block, rng.random() < 0.3


def _pin_fs(fill):
    fs = BlockFileSystem(DiskModel.rz57())
    handle = fs.open("data")
    for block in range(48):
        fs.write(handle, block * 4096, fill(block))
    return fs, handle


class TestBehaviourPin:
    """Exact state after every access of a seeded trace, hashed.

    Each run interleaves a ``shrink_one()`` every 97 accesses.  A moved
    digest means the caches' tiering, frame accounting, charging or
    ages changed.
    """

    STEPS = 1500

    def test_compressed_cache(self):
        digest = hashlib.sha256()
        for nframes in (4, 8, 16):
            for fraction in (0.25, 0.5, 1.0):
                for fill in (dp_band_values, _pin_fill):
                    fs, handle = _pin_fs(fill)
                    frames = FramePool(nframes)
                    ledger = Ledger()
                    cache = CompressedBufferCache(
                        fs, frames, CompressionSampler(create("lzrw1")),
                        ledger, CostModel(),
                        max_compressed_fraction=fraction,
                    )
                    trace = _pin_trace(nframes, nframes, self.STEPS)
                    for step, (block, write) in enumerate(trace):
                        now = float(step)
                        cache.access(handle, block, now, write=write)
                        if step % 97 == 96:
                            cache.shrink_one()
                        c = cache.counters
                        state = (
                            c.hits, c.compressed_hits, c.misses,
                            c.compressions, c.rejected_blocks, c.writebacks,
                            c.hit_rate,
                            cache.front_blocks, cache.compressed_blocks,
                            cache.total_frames_held, frames.free_frames,
                            [ledger.total(c) for c in TimeCategory],
                            cache.coldest_age(now),
                        )
                        digest.update(repr(state).encode())
        assert digest.hexdigest() == COMPRESSED_PIN

    def test_plain_cache(self):
        digest = hashlib.sha256()
        for nframes in (4, 8, 16):
            fs, handle = _pin_fs(_pin_fill)
            frames = FramePool(nframes)
            cache = BufferCache(fs, frames)
            trace = _pin_trace(nframes, nframes, self.STEPS)
            for step, (block, write) in enumerate(trace):
                now = float(step)
                seconds = cache.access(handle, block, now, write=write)
                if step % 97 == 96:
                    seconds = (seconds, cache.shrink_one())
                state = (
                    cache.counters.snapshot(), cache.nblocks,
                    frames.free_frames, cache.coldest_age(now), seconds,
                )
                digest.update(repr(state).encode())
            digest.update(repr(cache.flush()).encode())
        assert digest.hexdigest() == PLAIN_PIN


COMPRESSED_PIN = (
    "66d2e75f50adc38a85cb026ddb81c2c8fd733a787ec446f179ac50b176778eda"
)
PLAIN_PIN = "202c399ba1acf63cb748dcb83856a3e7875311ba268663c93b2f8017addf5197"
