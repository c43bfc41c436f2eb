"""A compressed file buffer cache — the paper's Section 6 extension.

"One might consider combining compressed Sprite LFS with the compression
cache techniques presented here: the system could keep part or all of
the file buffer cache in compressed format in order to improve the cache
hit rate."

This module implements that: a two-tier block cache.  The front tier is
the stock :class:`BufferCache`, uncompressed blocks one per frame.
Blocks evicted from the front are compressed (with the real compressor,
on the real block bytes) and, if they meet the 4:3 threshold, retained
packed in a compressed tier; a hit there costs a decompression instead
of a device read.  Compressed-tier evictions write back dirty blocks and
drop clean ones.

The compressed tier holds ``ceil(bytes / frame)`` frames of its own, a
simplification relative to the compression cache's full circular-buffer
bookkeeping, which :mod:`repro.ccache.circular` already models in
detail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..compression.sampler import CompressionSampler
from ..compression.stats import CompressionThreshold
from ..mem.frames import FrameOwner, FramePool
from ..mem.lru import SizedLru
from ..sim.costs import CostModel
from ..sim.ledger import Ledger, TimeCategory
from .blockfs import BlockFile
from .buffercache import (
    BlockKey, BufferCache, BufferCacheCounters, FrameProvider,
)


@dataclass
class CompressedCacheCounters(BufferCacheCounters):
    """Two-tier hit accounting: ``hits`` are front-tier hits."""

    compressed_hits: int = 0
    compressions: int = 0
    rejected_blocks: int = 0      # failed the 4:3 threshold

    @property
    def hit_rate(self) -> float:
        """Combined (any-tier) hit rate."""
        total = self.hits + self.compressed_hits + self.misses
        if total == 0:
            return 0.0
        return (self.hits + self.compressed_hits) / total


@dataclass
class _CompressedBlock:
    nbytes: int
    dirty: bool
    last_touch: float


class CompressedBufferCache(BufferCache):
    """Two-tier (uncompressed + compressed) file-block cache.

    Every second is charged to ``ledger``; :meth:`access` returns the
    seconds its fill cost (a read or a decompression).

    Args:
        fs: the block file system (holds block contents).
        frames: shared physical frame pool.
        sampler: compression measurement (real algorithm, real bytes).
        ledger: where (de)compression and I/O time is charged.
        costs: CPU cost model.
        frame_provider: allocator callback when the pool is empty.
        max_compressed_fraction: bound on the compressed tier's share of
            the cache's total frames, so the front tier never starves.
    """

    def __init__(
        self,
        fs,
        frames: FramePool,
        sampler: CompressionSampler,
        ledger: Ledger,
        costs: CostModel,
        frame_provider: Optional[FrameProvider] = None,
        max_compressed_fraction: float = 0.5,
    ):
        if not 0.0 <= max_compressed_fraction <= 1.0:
            raise ValueError(
                f"max_compressed_fraction out of range: "
                f"{max_compressed_fraction}"
            )
        super().__init__(fs, frames, frame_provider)
        self.sampler = sampler
        self.ledger = ledger
        self.costs = costs
        self.threshold = CompressionThreshold()
        self.max_compressed_fraction = max_compressed_fraction
        self.counters = CompressedCacheCounters()
        self._compressed: SizedLru[BlockKey, _CompressedBlock] = SizedLru()
        #: The frames the compressed tier holds, ``ceil(bytes / frame)``.
        self._tier_frames: List[int] = []

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def front_blocks(self) -> int:
        """Blocks resident uncompressed."""
        return len(self._frame_of)

    @property
    def compressed_blocks(self) -> int:
        """Blocks held compressed."""
        return len(self._compressed)

    @property
    def total_frames_held(self) -> int:
        """Frames owned across both tiers."""
        return len(self._frame_of) + len(self._tier_frames)

    def coldest_age(self, now: float) -> Optional[float]:
        """MemoryPool protocol: the older of the two tiers' LRU entries."""
        ages = []
        front = self._lru.coldest_age(now)
        if front is not None:
            ages.append(front)
        for _, block in self._compressed.items():
            ages.append(now - block.last_touch)
            break
        return max(ages) if ages else None

    # ------------------------------------------------------------------
    # Tier transitions
    # ------------------------------------------------------------------

    def _fill(self, file: BlockFile, key: BlockKey) -> float:
        """A compressed hit decompresses; a miss reads the block, then
        takes its frame."""
        entry = self._compressed.pop(key)
        if entry is not None:
            self.counters.compressed_hits += 1
            self._fit_tier_frames()
            seconds = self.costs.decompress_seconds(self.fs.block_size)
            self.ledger.charge(TimeCategory.DECOMPRESS, seconds)
            self._install(key, dirty=entry.dirty)
            return seconds
        self.counters.misses += 1
        _, seconds = self.fs.read(
            file, key[1] * self.fs.block_size, self.fs.block_size
        )
        self.ledger.charge(TimeCategory.IO_READ, seconds)
        self._install(key, dirty=False)
        return seconds

    def _evict(self, key: BlockKey, dirty: bool, last_touch: float) -> float:
        """Compress the evicted front block into the second tier.

        The block keeps its front-tier stamp (the caller's clock), so
        :meth:`coldest_age` compares the two tiers on one clock.  Its
        frame is already free, so the compressed tier can grow into it
        (mirrors CompressedVM's eviction ordering).
        """
        data = self.fs.peek(
            self._file_of[key[0]], key[1] * self.fs.block_size,
            self.fs.block_size,
        )
        self.ledger.charge(
            TimeCategory.COMPRESS,
            self.costs.compress_seconds(self.fs.block_size),
        )
        self.counters.compressions += 1
        result = self.sampler.compress(data)
        kept = self.threshold.keep_compressed(
            len(data), result.compressed_size
        )
        if kept and self._compressed_tier_has_room():
            self._compressed.insert(key, _CompressedBlock(
                nbytes=result.compressed_size,
                dirty=dirty,
                last_touch=last_touch,
            ))
            self._fit_tier_frames()
        else:
            if not kept:
                self.counters.rejected_blocks += 1
            if dirty:
                self._writeback(key)
        return 0.0

    def _compressed_tier_has_room(self) -> bool:
        limit = int(self.total_frames_held * self.max_compressed_fraction)
        return len(self._tier_frames) <= max(1, limit)

    def _fit_tier_frames(self) -> None:
        """Hold exactly ``ceil(bytes / frame)`` frames for the compressed
        tier; with no frame to be had, drop its own LRU blocks."""
        frames = self._tier_frames
        tier = self._compressed
        block_size = self.fs.block_size
        while len(frames) * block_size < tier.used_bytes:
            if self.frames.free_frames > 0:
                frames.append(self.frames.allocate(FrameOwner.FILE_CACHE))
            elif self.frame_provider is not None:
                frames.append(self.frame_provider(FrameOwner.FILE_CACHE))
            else:
                self._evict_compressed_lru()
        while (len(frames) - 1) * block_size >= tier.used_bytes:
            self.frames.release(frames.pop())

    def _evict_compressed_lru(self) -> None:
        if not self._compressed:
            raise RuntimeError("compressed tier is empty but over budget")
        key, entry = self._compressed.pop_lru()
        if entry.dirty:
            self._writeback(key)

    def _writeback(self, key: BlockKey) -> float:
        seconds = super()._writeback(key)
        self.ledger.charge(TimeCategory.IO_WRITE, seconds)
        return seconds

    # ------------------------------------------------------------------
    # MemoryPool protocol
    # ------------------------------------------------------------------

    def shrink_one(self) -> Optional[float]:
        """Give one frame back.

        Demoting one front block frees its frame, but the compressed
        tier may immediately claim that frame for the compressed copy
        (each tier-two frame holds several blocks, so this happens at
        most once every few demotions).  Keep demoting until a frame is
        genuinely free; if the front tier empties first, shed compressed
        blocks instead.
        """
        before = self.frames.free_frames
        for _ in range(8):
            if super().shrink_one() is None:
                break
            if self.frames.free_frames > before:
                return 0.0
        while self._compressed:
            self._evict_compressed_lru()
            self._fit_tier_frames()
            if self.frames.free_frames > before:
                return 0.0
        return 0.0 if self.frames.free_frames > before else None

    def flush(self) -> float:
        """Write back all dirty blocks in both tiers."""
        seconds = super().flush()
        for key, entry in self._compressed.items():
            if entry.dirty:
                seconds += self._writeback(key)
                entry.dirty = False
        return seconds
