"""File-system buffer cache — the third consumer of physical memory.

Sprite "trades physical memory dynamically between VM for application
processes and the file system's buffer cache" (Section 4); the compression
cache joins as a third party.  This LRU block cache exposes exactly what
the three-way allocator needs: the age of its coldest block and a way to
give one frame back (writing the block out first if dirty).

Frames come from the shared :class:`repro.mem.frames.FramePool`; a frame
provider callback lets the allocator arbitrate when the pool is empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from ..counters import Counters
from ..mem.frames import FrameOwner, FramePool
from ..mem.lru import LruList
from .blockfs import BlockFile, BlockFileSystem

BlockKey = Tuple[int, int]  # (file id, block number)

#: Called when the cache needs a frame and the pool has none free; must
#: make one available (by shrinking some consumer) and return it.
FrameProvider = Callable[[FrameOwner], int]


@dataclass
class BufferCacheCounters(Counters):
    """Hit/miss and writeback accounting."""

    DERIVED = ("hit_rate",)

    hits: int = 0
    misses: int = 0
    writebacks: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class BufferCache:
    """LRU cache of file blocks, one block per physical frame.

    A subclass changes what a miss brings in (:meth:`_fill`) and what an
    evicted block becomes (:meth:`_evict`), as the subclasses of
    :class:`repro.vm.system.BaseVM` do for pages.
    """

    def __init__(
        self,
        fs: BlockFileSystem,
        frames: FramePool,
        frame_provider: Optional[FrameProvider] = None,
    ):
        self.fs = fs
        self.frames = frames
        self.frame_provider = frame_provider
        self.counters = BufferCacheCounters()
        self._lru: LruList[BlockKey] = LruList()
        self._frame_of: Dict[BlockKey, int] = {}
        self._dirty: Dict[BlockKey, bool] = {}
        self._file_of: Dict[int, BlockFile] = {}

    def __len__(self) -> int:
        return len(self._frame_of)

    @property
    def nblocks(self) -> int:
        """Blocks currently cached."""
        return len(self._frame_of)

    def coldest_age(self, now: float) -> Optional[float]:
        """Age of the LRU block (for the three-way allocator)."""
        return self._lru.coldest_age(now)

    def access(
        self, file: BlockFile, block: int, now: float, write: bool = False
    ) -> float:
        """Touch a block through the cache; returns seconds charged.

        A miss reads the whole block from the file system; a write marks
        the cached block dirty (written back on eviction or flush).
        """
        key = (file.file_id, block)
        seconds = 0.0
        if key in self._frame_of:
            self.counters.hits += 1
        else:
            self._file_of[file.file_id] = file
            seconds = self._fill(file, key)
        if write:
            self._dirty[key] = True
        self._lru.touch(key, now)
        return seconds

    def _fill(self, file: BlockFile, key: BlockKey) -> float:
        """Bring a missing block in: take a frame, then read the block."""
        self.counters.misses += 1
        self._install(key, dirty=False)
        _, seconds = self.fs.read(
            file, key[1] * self.fs.block_size, self.fs.block_size
        )
        return seconds

    def _install(self, key: BlockKey, dirty: bool) -> None:
        self._frame_of[key] = self._take_frame()
        self._dirty[key] = dirty

    def _take_frame(self) -> int:
        if self.frames.free_frames > 0:
            return self.frames.allocate(FrameOwner.FILE_CACHE)
        if self.frame_provider is not None:
            return self.frame_provider(FrameOwner.FILE_CACHE)
        # Self-service: evict our own LRU block.
        if self.shrink_one() is None:
            raise RuntimeError("buffer cache cannot obtain a frame")
        return self.frames.allocate(FrameOwner.FILE_CACHE)

    def shrink_one(self) -> Optional[float]:
        """Evict the LRU block and release its frame.

        Returns seconds spent writing back (0.0 if clean), or None when
        the cache is empty.
        """
        coldest = self._lru.coldest()
        if coldest is None:
            return None
        key, last_touch = coldest
        self._lru.remove(key)
        self.frames.release(self._frame_of.pop(key))
        return self._evict(key, self._dirty.pop(key), last_touch)

    def _evict(self, key: BlockKey, dirty: bool, last_touch: float) -> float:
        """What a block evicted from the frames becomes (its frame is
        already free): here, written back if dirty."""
        return self._writeback(key) if dirty else 0.0

    def flush(self) -> float:
        """Write back every dirty block; returns seconds charged."""
        seconds = 0.0
        for key in list(self._dirty):
            if self._dirty[key]:
                seconds += self._writeback(key)
                self._dirty[key] = False
        return seconds

    def _writeback(self, key: BlockKey) -> float:
        file_id, block = key
        file = self._file_of[file_id]
        offset = block * self.fs.block_size
        existing = file.blocks.get(block)
        data = bytes(existing) if existing is not None else bytes(self.fs.block_size)
        self.counters.writebacks += 1
        return self.fs.write(file, offset, data)
