"""A log-structured file system (Rosenblum & Ousterhout), as a backing store.

The paper discusses LFS in three places: Burrows et al. compressed file
data inside it; "Sprite LFS ... provides much higher bandwidth by
coalescing many small writes into a single larger transfer, but LFS
suffers from the same restriction of 4-Kbyte transfers"; and "Note that
Sprite LFS could alleviate the problem of seeks between pageouts by
grouping multiple pages into a single segment.  However, it is not clear
that paging into LFS would be desirable under heavy paging load.  LFS
requires significant memory for buffers, and for LFS to clean segments
containing swap files, it must copy more live blocks than for other
types of data."

This implementation lets those claims be tested: it exposes the same
interface as :class:`BlockFileSystem` (so the swap layers run on either),
appends all writes into fixed-size segments flushed with single large
sequential transfers, tracks per-segment liveness, and runs a
cost-charged cleaner that copies live blocks out of victim segments
(greedy lowest-utilization-first).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .blockfs import BlockFile, BlockFileSystem, FsCounters
from .device import BackingDevice

BlockAddress = Tuple[int, int]  # (file id, block number)


@dataclass
class LfsCounters(FsCounters):
    """Block-level counters plus log/cleaner accounting."""

    segments_written: int = 0
    segments_cleaned: int = 0
    live_blocks_copied: int = 0


@dataclass
class _Segment:
    """One on-disk log segment."""

    number: int
    #: live[slot] = block address currently stored there, or None (dead).
    slots: List[Optional[BlockAddress]] = field(default_factory=list)
    live: int = 0


class LogStructuredFS(BlockFileSystem):
    """Append-only block file system with segment cleaning.

    The file namespace (``open``), ``peek`` and the range check are
    :class:`BlockFileSystem`'s; where blocks go on disk is its own.

    Args:
        device: the timing device.
        block_size: file-system block size (the paper's 4 KBytes).
        segment_blocks: blocks per log segment (Sprite LFS used large
            segments; 128 blocks = 512 KBytes here by default).
        total_segments: disk capacity in segments; the cleaner keeps a
            reserve of free segments.
        clean_reserve: start cleaning when free segments drop below this.
    """

    def __init__(
        self,
        device: BackingDevice,
        block_size: int = 4096,
        segment_blocks: int = 128,
        total_segments: int = 512,
        clean_reserve: int = 4,
    ):
        if block_size <= 0 or segment_blocks <= 0 or total_segments <= 2:
            raise ValueError("invalid LFS geometry")
        if clean_reserve < 1 or clean_reserve >= total_segments:
            raise ValueError(f"bad clean reserve: {clean_reserve}")
        super().__init__(device, block_size)
        self.segment_blocks = segment_blocks
        self.total_segments = total_segments
        self.clean_reserve = clean_reserve
        self.counters = LfsCounters()
        # Where each live block lives: address -> (segment, slot).
        self._locations: Dict[BlockAddress, Tuple[int, int]] = {}
        self._segments: Dict[int, _Segment] = {}
        self._free_segments: List[int] = list(range(total_segments - 1, -1, -1))
        self._open_segment: Optional[_Segment] = None
        self._pending_blocks: List[BlockAddress] = []

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def read(self, file: BlockFile, offset: int, nbytes: int) -> Tuple[bytes, float]:
        """Read ``nbytes`` at ``offset`` (whole covered blocks transferred)."""
        self._check_range(offset, nbytes)
        if nbytes == 0:
            return b"", 0.0
        first = offset // self.block_size
        last = (offset + nbytes - 1) // self.block_size
        seconds = 0.0
        buf = bytearray()
        previous: Optional[Tuple[int, int]] = None
        for number in range(first, last + 1):
            address = (file.file_id, number)
            location = self._locations.get(address)
            if location is not None and location[0] != -1:
                sequential = (
                    previous is not None
                    and location == (previous[0], previous[1] + 1)
                )
                seconds += self.device.read(
                    self.block_size, sequential=sequential
                )
                self.counters.block_reads += 1
                previous = location
            # Unwritten or buffer-resident blocks cost no media transfer.
            block = file.blocks.get(number)
            buf += block if block is not None else bytes(self.block_size)
        lo = offset - first * self.block_size
        return bytes(buf[lo : lo + nbytes]), seconds

    # ------------------------------------------------------------------
    # Writes (always appended to the log)
    # ------------------------------------------------------------------

    def write(self, file: BlockFile, offset: int, data: bytes) -> float:
        """Write ``data``; dirty blocks join the open segment.

        Sub-block writes merge with the old block contents in memory —
        "a change to one block within a file would not cause changes to
        compressed data later in the file" and, unlike the update-in-place
        file system, never force a read-modify-write *on disk* for data
        already in the buffer.  Old on-disk copies become dead blocks for
        the cleaner.
        """
        nbytes = len(data)
        self._check_range(offset, nbytes)
        if nbytes == 0:
            return 0.0
        seconds = 0.0
        first = offset // self.block_size
        last = (offset + nbytes - 1) // self.block_size
        pos = offset
        view = memoryview(bytes(data))
        for number in range(first, last + 1):
            block_start = number * self.block_size
            lo = max(pos, block_start) - block_start
            hi = min(offset + nbytes, block_start + self.block_size) - block_start
            chunk = view[: hi - lo]
            view = view[hi - lo :]
            if not (lo == 0 and hi == self.block_size):
                self.counters.partial_writes += 1
                # Merging needs the old contents; charge a read only if
                # the block is on disk and not in the simulated buffer
                # cache (our block map holds data in memory, so the read
                # is charged for cold blocks only).
                address = (file.file_id, number)
                if (
                    address in self._locations
                    and number not in file.blocks
                ):
                    seconds += self.device.read(self.block_size)
                    self.counters.block_reads += 1
                    self.counters.rmw_reads += 1
            file._block(number)[lo:hi] = chunk
            pos = block_start + hi
            seconds += self._log_block((file.file_id, number))
        file.size = max(file.size, offset + nbytes)
        self.counters.block_writes += last - first + 1
        return seconds

    def truncate(self, file: BlockFile, size: int) -> None:
        """Shrink the file; truncated blocks die in their segments."""
        if size < 0:
            raise ValueError(f"negative size: {size}")
        keep_blocks = -(-size // self.block_size)
        for number in [n for n in file.blocks if n >= keep_blocks]:
            del file.blocks[number]
            self._kill((file.file_id, number))
        self._pending_blocks = [
            address for address in self._pending_blocks
            if not (address[0] == file.file_id and address[1] >= keep_blocks)
        ]
        file.size = min(file.size, size)

    def flush(self) -> float:
        """Force the open segment to disk; returns seconds."""
        return self._flush_segment()

    # ------------------------------------------------------------------
    # Log internals
    # ------------------------------------------------------------------

    def _log_block(self, address: BlockAddress) -> float:
        """Stage one dirty block into the open segment."""
        seconds = 0.0
        self._kill(address)
        if address in self._pending_blocks:
            # Rewritten while still buffered: stays one pending copy.
            self._locations[address] = (-1, -1)
            return seconds
        self._pending_blocks.append(address)
        self._locations[address] = (-1, -1)  # buffered, not on disk yet
        if len(self._pending_blocks) >= self.segment_blocks:
            seconds += self._flush_segment()
        return seconds

    def _flush_segment(self) -> float:
        """Write pending blocks, one full segment at a time.

        Cleaning (triggered to maintain the free reserve) may itself add
        re-logged live blocks to the pending list; the loop keeps writing
        segments until the buffer drains.
        """
        seconds = 0.0
        while self._pending_blocks:
            seconds += self._ensure_free_segment()
            chunk = self._pending_blocks[: self.segment_blocks]
            del self._pending_blocks[: self.segment_blocks]
            number = self._free_segments.pop()
            segment = _Segment(number=number)
            for slot, address in enumerate(chunk):
                segment.slots.append(address)
                self._locations[address] = (number, slot)
            segment.live = len(segment.slots)
            self._segments[number] = segment
            seconds += self.device.write(
                len(chunk) * self.block_size, sequential=True
            )
            self.counters.segments_written += 1
        return seconds

    def _kill(self, address: BlockAddress) -> None:
        location = self._locations.pop(address, None)
        if location is None or location[0] == -1:
            return
        segment = self._segments[location[0]]
        segment.slots[location[1]] = None
        segment.live -= 1
        if segment.live == 0:
            del self._segments[segment.number]
            self._free_segments.append(segment.number)

    def _ensure_free_segment(self) -> float:
        """Clean greedily until a reserve of free segments exists."""
        seconds = 0.0
        guard = 0
        while len(self._free_segments) < self.clean_reserve:
            victim = self._pick_cleaning_victim()
            if victim is None:
                if not self._free_segments:
                    raise RuntimeError("LFS disk is full of live data")
                break
            seconds += self._clean_segment(victim)
            guard += 1
            if guard > self.total_segments:
                raise RuntimeError("LFS cleaner failed to make progress")
        return seconds

    def _pick_cleaning_victim(self) -> Optional[_Segment]:
        """Greedy policy: lowest-utilization segment first."""
        best = None
        for segment in self._segments.values():
            if segment.live >= self.segment_blocks:
                continue  # cleaning a full segment frees nothing
            if best is None or segment.live < best.live:
                best = segment
        return best

    def _clean_segment(self, segment: _Segment) -> float:
        """Read a victim segment and re-log its live blocks."""
        seconds = self.device.read(
            self.segment_blocks * self.block_size, sequential=False
        )
        live = [address for address in segment.slots if address is not None]
        del self._segments[segment.number]
        self._free_segments.append(segment.number)
        for address in live:
            self._locations.pop(address, None)
            if address not in self._pending_blocks:
                self._pending_blocks.append(address)
            self._locations[address] = (-1, -1)
        self.counters.segments_cleaned += 1
        self.counters.live_blocks_copied += len(live)
        # Re-logged blocks flush with the next segment write; the flush
        # loop in _flush_segment drains any buffer growth from cleaning.
        return seconds

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def free_segments(self) -> int:
        """Segments available for new log writes."""
        return len(self._free_segments)

    def utilization(self) -> float:
        """Live blocks as a fraction of allocated segment capacity."""
        allocated = len(self._segments) * self.segment_blocks
        if allocated == 0:
            return 0.0
        live = sum(segment.live for segment in self._segments.values())
        return live / allocated
