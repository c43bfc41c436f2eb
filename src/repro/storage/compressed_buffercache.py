"""A compressed file buffer cache — the paper's Section 6 extension.

"One might consider combining compressed Sprite LFS with the compression
cache techniques presented here: the system could keep part or all of
the file buffer cache in compressed format in order to improve the cache
hit rate."

This module implements that: a two-tier block cache.  The front tier
holds uncompressed blocks, one per frame, exactly like the stock
:class:`BufferCache`.  Blocks evicted from the front are compressed
(with the real compressor, on the real block bytes) and, if they meet
the 4:3 threshold, retained packed in a compressed tier; a hit there
costs a decompression instead of a device read.  Compressed-tier
evictions write back dirty blocks and drop clean ones.

The compressed tier's frame accounting packs payloads by byte count
(``ceil(bytes / frame)``), a simplification relative to the compression
cache's full circular-buffer bookkeeping, which
:mod:`repro.ccache.circular` already models in detail.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..compression.sampler import CompressionSampler
from ..compression.stats import CompressionThreshold
from ..counters import Counters
from ..mem.frames import FrameOwner, FramePool
from ..mem.lru import LruList
from ..sim.costs import CostModel
from ..sim.ledger import Ledger, TimeCategory
from .blockfs import BlockFile
from .buffercache import FrameProvider

BlockKey = Tuple[int, int]


@dataclass
class CompressedCacheCounters(Counters):
    """Two-tier hit accounting."""

    DERIVED = ("hit_rate",)

    front_hits: int = 0
    compressed_hits: int = 0
    misses: int = 0
    compressions: int = 0
    rejected_blocks: int = 0      # failed the 4:3 threshold
    writebacks: int = 0

    @property
    def accesses(self) -> int:
        return self.front_hits + self.compressed_hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Combined (any-tier) hit rate."""
        total = self.accesses
        if total == 0:
            return 0.0
        return (self.front_hits + self.compressed_hits) / total


@dataclass
class _CompressedBlock:
    nbytes: int
    dirty: bool
    last_touch: float


class CompressedBufferCache:
    """Two-tier (uncompressed + compressed) file-block cache.

    Args:
        fs: the block file system (holds block contents).
        frames: shared physical frame pool.
        sampler: compression measurement (real algorithm, real bytes).
        ledger: where (de)compression and I/O time is charged.
        costs: CPU cost model.
        frame_provider: allocator callback when the pool is empty.
        threshold: keep-compressed policy (the 4:3 rule by default).
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
        threshold: Optional[CompressionThreshold] = None,
        max_compressed_fraction: float = 0.5,
    ):
        if not 0.0 <= max_compressed_fraction <= 1.0:
            raise ValueError(
                f"max_compressed_fraction out of range: "
                f"{max_compressed_fraction}"
            )
        self.fs = fs
        self.frames = frames
        self.sampler = sampler
        self.ledger = ledger
        self.costs = costs
        self.frame_provider = frame_provider
        self.threshold = (
            threshold if threshold is not None else CompressionThreshold()
        )
        self.max_compressed_fraction = max_compressed_fraction
        self.counters = CompressedCacheCounters()
        # Front tier.
        self._front_lru: LruList[BlockKey] = LruList()
        self._front_frame: Dict[BlockKey, int] = {}
        self._front_dirty: Dict[BlockKey, bool] = {}
        # Compressed tier (byte-packed).
        self._compressed: "OrderedDict[BlockKey, _CompressedBlock]" = (
            OrderedDict()
        )
        self._compressed_bytes = 0
        self._compressed_frames_held = 0
        self._file_of: Dict[int, BlockFile] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def front_blocks(self) -> int:
        """Blocks resident uncompressed."""
        return len(self._front_frame)

    @property
    def compressed_blocks(self) -> int:
        """Blocks held compressed."""
        return len(self._compressed)

    @property
    def total_frames_held(self) -> int:
        """Frames owned across both tiers."""
        return len(self._front_frame) + self._compressed_frames_held

    def coldest_age(self, now: float) -> Optional[float]:
        """MemoryPool protocol: the older of the two tiers' LRU entries."""
        ages = []
        front = self._front_lru.coldest_age(now)
        if front is not None:
            ages.append(front)
        for block in self._compressed.values():
            ages.append(now - block.last_touch)
            break
        return max(ages) if ages else None

    # ------------------------------------------------------------------
    # Access path
    # ------------------------------------------------------------------

    def access(self, file: BlockFile, block: int, now: float,
               write: bool = False) -> None:
        """Touch a block; charges I/O / (de)compression to the ledger."""
        key = (file.file_id, block)
        self._file_of[file.file_id] = file
        if key in self._front_frame:
            self.counters.front_hits += 1
        elif key in self._compressed:
            self.counters.compressed_hits += 1
            entry = self._compressed.pop(key)
            self._account_compressed_bytes(-entry.nbytes)
            self.ledger.charge(
                TimeCategory.DECOMPRESS,
                self.costs.decompress_seconds(self.fs.block_size),
            )
            self._install_front(key, dirty=entry.dirty)
        else:
            self.counters.misses += 1
            _, seconds = self.fs.read(
                file, block * self.fs.block_size, self.fs.block_size
            )
            self.ledger.charge(TimeCategory.IO_READ, seconds)
            self._install_front(key, dirty=False)
        if write:
            self._front_dirty[key] = True
        self._front_lru.touch(key, now)

    # ------------------------------------------------------------------
    # Tier transitions
    # ------------------------------------------------------------------

    def _install_front(self, key: BlockKey, dirty: bool) -> None:
        frame = self._take_frame()
        self._front_frame[key] = frame
        self._front_dirty[key] = dirty

    def _take_frame(self) -> int:
        if self.frames.free_frames > 0:
            return self.frames.allocate(FrameOwner.FILE_CACHE)
        if self.frame_provider is not None:
            return self.frame_provider(FrameOwner.FILE_CACHE)
        if self.shrink_one() is None:
            raise RuntimeError("compressed buffer cache cannot get a frame")
        return self.frames.allocate(FrameOwner.FILE_CACHE)

    def _demote_front_lru(self) -> None:
        """Compress the front tier's LRU block into the second tier.

        The block keeps its front-tier stamp (the caller's clock), so
        :meth:`coldest_age` compares the two tiers on one clock.
        """
        key, last_touch = self._front_lru.coldest()
        self._front_lru.remove(key)
        frame = self._front_frame.pop(key)
        dirty = self._front_dirty.pop(key)
        file = self._file_of[key[0]]
        data = self.fs.peek(
            file, key[1] * self.fs.block_size, self.fs.block_size
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
        # Release the demoted block's frame first so the compressed tier
        # can grow into it (mirrors CompressedVM's eviction ordering).
        self.frames.release(frame)
        if kept and self._compressed_tier_has_room():
            self._compressed[key] = _CompressedBlock(
                nbytes=result.compressed_size,
                dirty=dirty,
                last_touch=last_touch,
            )
            self._account_compressed_bytes(result.compressed_size)
        else:
            if not kept:
                self.counters.rejected_blocks += 1
            if dirty:
                self._writeback(key)

    def _compressed_tier_has_room(self) -> bool:
        limit = int(self.total_frames_held * self.max_compressed_fraction)
        return self._compressed_frames_held <= max(1, limit)

    def _account_compressed_bytes(self, delta: int) -> None:
        self._compressed_bytes += delta
        needed = -(-self._compressed_bytes // self.fs.block_size)
        while self._compressed_frames_held < needed:
            if self.frames.free_frames > 0:
                self.frames.allocate(FrameOwner.FILE_CACHE)
            elif self.frame_provider is not None:
                self.frame_provider(FrameOwner.FILE_CACHE)
            else:
                # Make room by dropping our own compressed LRU.
                self._evict_compressed_lru()
                needed = -(-self._compressed_bytes // self.fs.block_size)
                continue
            self._compressed_frames_held += 1
        while self._compressed_frames_held > needed:
            # Find a frame of ours to give back.
            self.frames.release(self._borrow_frame_id())
            self._compressed_frames_held -= 1

    def _borrow_frame_id(self) -> int:
        # The pool tracks ids, not identities; grab any FILE_CACHE frame
        # we own beyond the front tier's mapped ones.
        owned = [
            frame for frame in self.frames.allocated_set()
            if self.frames.owner_of(frame) == FrameOwner.FILE_CACHE
            and frame not in self._front_frame.values()
        ]
        return owned[0]

    def _evict_compressed_lru(self) -> None:
        if not self._compressed:
            raise RuntimeError("compressed tier is empty but over budget")
        key, entry = self._compressed.popitem(last=False)
        self._compressed_bytes -= entry.nbytes
        if entry.dirty:
            self._writeback(key)

    def _writeback(self, key: BlockKey) -> None:
        file = self._file_of[key[0]]
        offset = key[1] * self.fs.block_size
        data = self.fs.peek(file, offset, self.fs.block_size)
        seconds = self.fs.write(file, offset, data)
        self.ledger.charge(TimeCategory.IO_WRITE, seconds)
        self.counters.writebacks += 1

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
            if not self._front_frame:
                break
            self._demote_front_lru()
            if self.frames.free_frames > before:
                return 0.0
        while self._compressed:
            self._evict_compressed_lru()
            self._account_compressed_bytes(0)
            if self.frames.free_frames > before:
                return 0.0
        return 0.0 if self.frames.free_frames > before else None

    def flush(self) -> None:
        """Write back all dirty blocks in both tiers."""
        for key, dirty in list(self._front_dirty.items()):
            if dirty:
                self._writeback(key)
                self._front_dirty[key] = False
        for key, entry in list(self._compressed.items()):
            if entry.dirty:
                self._writeback(key)
                entry.dirty = False
