"""Block file system with whole-block transfer semantics.

Section 4.3 is driven by a property of the Sprite file system: "with the
exception of the last block in a file, the file system enforces transfers
in multiples of a whole file system block.  If part of a block is written
then the file system reads the old contents and overwrites the part just
written before writing the whole block back to disk" — so compressing a
page from 4 KBytes to 2 KBytes and writing it naively costs a 4-KByte
*read* plus a 4-KByte *write*.  Reads of part of a block likewise read the
whole block.

This module reproduces those semantics over a :class:`BackingDevice`,
stores real bytes (so swap round trips are verifiable), and models the
three write policies the paper discusses:

* ``READ_MODIFY_WRITE`` — the stock behaviour above;
* ``WHOLE_BLOCK`` — "issue an operation to write an entire block, thus
  writing 4 KBytes but not first issuing a disk read";
* ``OVERWRITE`` — "modify the file system to overwrite part of a file
  system block on disk without reading the remainder".

Sequentiality is determined by a simulated head position: an operation
that begins exactly where the previous one ended pays no positioning cost.
This is what makes the unmodified system's alternating write-out/fault-in
pattern cost "two disk seeks for each fault" while a linear read-only
fault stream streams off the platter (Section 5.1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..counters import Counters
from .device import BackingDevice


class PartialWritePolicy(enum.Enum):
    """How the file system services a sub-block write (Section 4.3)."""

    READ_MODIFY_WRITE = "rmw"
    WHOLE_BLOCK = "whole-block"
    OVERWRITE = "overwrite"


@dataclass
class FsCounters(Counters):
    """File-system level counters (block granularity)."""

    block_reads: int = 0
    block_writes: int = 0
    rmw_reads: int = 0
    partial_writes: int = 0


@dataclass
class BlockFile:
    """A file: sparse map of block number to block bytes."""

    file_id: int
    name: str
    block_size: int
    blocks: Dict[int, bytearray] = field(default_factory=dict, repr=False)
    size: int = 0

    def _block(self, number: int) -> bytearray:
        block = self.blocks.get(number)
        if block is None:
            block = bytearray(self.block_size)
            self.blocks[number] = block
        return block


class BlockFileSystem:
    """Whole-block file system over a timing device.

    Args:
        device: the backing device charged for transfers.
        block_size: file-system block size; the paper's is 4 KBytes.
        partial_write_policy: behaviour for sub-block writes.
    """

    def __init__(
        self,
        device: BackingDevice,
        block_size: int = 4096,
        partial_write_policy: PartialWritePolicy = (
            PartialWritePolicy.READ_MODIFY_WRITE
        ),
    ):
        if block_size <= 0:
            raise ValueError(f"block size must be positive: {block_size}")
        self.device = device
        self.block_size = block_size
        self.partial_write_policy = partial_write_policy
        self.counters = FsCounters()
        self._files: Dict[int, BlockFile] = {}
        self._by_name: Dict[str, int] = {}
        self._next_id = 0
        # Simulated head position: (file_id, next byte offset), or None.
        self._head: Optional[Tuple[int, int]] = None

    def open(self, name: str) -> BlockFile:
        """Open (creating if needed) the file called ``name``."""
        file_id = self._by_name.get(name)
        if file_id is not None:
            return self._files[file_id]
        handle = BlockFile(self._next_id, name, self.block_size)
        self._files[handle.file_id] = handle
        self._by_name[name] = handle.file_id
        self._next_id += 1
        return handle

    def _sequential(self, file: BlockFile, offset: int) -> bool:
        return self._head == (file.file_id, offset)

    def _advance_head(self, file: BlockFile, end_offset: int) -> None:
        self._head = (file.file_id, end_offset)

    def read(self, file: BlockFile, offset: int, nbytes: int) -> Tuple[bytes, float]:
        """Read ``nbytes`` at ``offset``; whole covered blocks are transferred.

        Returns (data, seconds).  Unwritten ranges read as zeros.
        """
        self._check_range(offset, nbytes)
        if nbytes == 0:
            return b"", 0.0
        first = offset // self.block_size
        last = (offset + nbytes - 1) // self.block_size
        aligned_start = first * self.block_size
        aligned_bytes = (last - first + 1) * self.block_size
        sequential = self._sequential(file, aligned_start)
        seconds = self.device.read(aligned_bytes, sequential=sequential)
        self.counters.block_reads += last - first + 1
        self._advance_head(file, aligned_start + aligned_bytes)

        buf = bytearray()
        for number in range(first, last + 1):
            block = file.blocks.get(number)
            buf += block if block is not None else bytes(self.block_size)
        lo = offset - aligned_start
        return bytes(buf[lo : lo + nbytes]), seconds

    def peek(self, file: BlockFile, offset: int, nbytes: int) -> bytes:
        """Read bytes without charging I/O (simulation-internal use,
        e.g. prefetching data that a block transfer already paid for)."""
        self._check_range(offset, nbytes)
        if nbytes == 0:
            return b""
        first = offset // self.block_size
        last = (offset + nbytes - 1) // self.block_size
        buf = bytearray()
        for number in range(first, last + 1):
            block = file.blocks.get(number)
            buf += block if block is not None else bytes(self.block_size)
        lo = offset - first * self.block_size
        return bytes(buf[lo : lo + nbytes])

    def write(self, file: BlockFile, offset: int, data: bytes) -> float:
        """Write ``data`` at ``offset``; returns seconds charged.

        Sub-block head/tail pieces are serviced per the partial-write
        policy; writes that begin at or beyond end-of-file count as
        appends ("the last block in a file" exception) and never trigger
        a read-modify-write.
        """
        nbytes = len(data)
        self._check_range(offset, nbytes)
        if nbytes == 0:
            return 0.0
        first = offset // self.block_size
        last = (offset + nbytes - 1) // self.block_size
        aligned_start = first * self.block_size
        sequential = self._sequential(file, aligned_start)
        seconds = 0.0
        transfer_bytes = 0

        pos = offset
        remaining = memoryview(bytes(data))
        for number in range(first, last + 1):
            block_start = number * self.block_size
            lo = max(pos, block_start) - block_start
            hi = min(offset + nbytes, block_start + self.block_size) - block_start
            chunk = remaining[: hi - lo]
            remaining = remaining[hi - lo :]
            whole = lo == 0 and hi == self.block_size
            appending = block_start + lo >= file.size
            if not whole:
                self.counters.partial_writes += 1
            if whole or appending:
                transfer_bytes += self.block_size if whole else hi - lo
            else:
                policy = self.partial_write_policy
                if policy == PartialWritePolicy.READ_MODIFY_WRITE:
                    # Read the old block (separate transfer), then the
                    # whole block joins this write.
                    seconds += self.device.read(
                        self.block_size, sequential=False
                    )
                    self.counters.rmw_reads += 1
                    self.counters.block_reads += 1
                    sequential = False  # the read moved the head away
                    transfer_bytes += self.block_size
                elif policy == PartialWritePolicy.WHOLE_BLOCK:
                    transfer_bytes += self.block_size
                else:  # OVERWRITE
                    transfer_bytes += hi - lo
            file._block(number)[lo:hi] = chunk
            pos = block_start + hi

        seconds += self.device.write(transfer_bytes, sequential=sequential)
        self.counters.block_writes += last - first + 1
        file.size = max(file.size, offset + nbytes)
        self._advance_head(file, (last + 1) * self.block_size)
        return seconds

    def truncate(self, file: BlockFile, size: int) -> None:
        """Shrink ``file`` to ``size`` bytes, dropping whole blocks beyond."""
        if size < 0:
            raise ValueError(f"negative size: {size}")
        keep_blocks = -(-size // self.block_size)
        for number in [n for n in file.blocks if n >= keep_blocks]:
            del file.blocks[number]
        file.size = min(file.size, size)

    @staticmethod
    def _check_range(offset: int, nbytes: int) -> None:
        if offset < 0 or nbytes < 0:
            raise ValueError(f"bad file range: offset={offset} nbytes={nbytes}")
