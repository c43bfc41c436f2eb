"""Standard (uncompressed) swap: one-to-one page ↔ file-block mapping.

"When a page is written to backing store, it is written to a 'swap file'
corresponding to the segment containing the page, at an offset
corresponding to the location of the page within the segment.  This fixed
mapping of pages to file blocks makes it trivial to locate a page on the
backing store." (Section 4.3)

Both the unmodified system and the compression cache's fallback path for
uncompressible pages use this layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..counters import Counters
from ..mem.page import PageId
from .blockfs import BlockFile, BlockFileSystem


@dataclass
class SwapCounters(Counters):
    """Page-granularity swap traffic."""

    pages_out: int = 0
    pages_in: int = 0


class StandardSwap:
    """Per-segment swap files with the fixed page↔offset mapping."""

    def __init__(self, fs: BlockFileSystem, page_size: int = 4096):
        if page_size % fs.block_size and fs.block_size % page_size:
            raise ValueError(
                f"page size {page_size} and block size {fs.block_size} "
                "must be multiples of each other"
            )
        self.fs = fs
        self.page_size = page_size
        self.counters = SwapCounters()
        self._files: Dict[int, BlockFile] = {}
        self._present: Dict[PageId, bool] = {}

    def _file(self, segment: int) -> BlockFile:
        handle = self._files.get(segment)
        if handle is None:
            handle = self.fs.open(f"swap.seg{segment}")
            self._files[segment] = handle
        return handle

    def write_page(self, page_id: PageId, data: bytes) -> float:
        """Write a full page to its fixed swap offset; returns seconds."""
        if len(data) != self.page_size:
            raise ValueError(
                f"standard swap writes whole pages: got {len(data)} bytes"
            )
        handle = self._file(page_id.segment)
        seconds = self.fs.write(handle, page_id.number * self.page_size, data)
        self._present[page_id] = True
        self.counters.pages_out += 1
        return seconds

    def read_page(self, page_id: PageId) -> Tuple[bytes, float]:
        """Read a page from its fixed offset; returns (data, seconds)."""
        if not self._present.get(page_id):
            raise KeyError(f"page {page_id} was never written to swap")
        handle = self._file(page_id.segment)
        data, seconds = self.fs.read(
            handle, page_id.number * self.page_size, self.page_size
        )
        self.counters.pages_in += 1
        return data, seconds

    def contains(self, page_id: PageId) -> bool:
        """True when the page has a valid copy on backing store."""
        return self._present.get(page_id, False)

    def invalidate(self, page_id: PageId) -> None:
        """Drop the backing copy (e.g. page modified in memory)."""
        self._present.pop(page_id, None)
