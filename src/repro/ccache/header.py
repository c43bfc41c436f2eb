"""Compression-cache descriptors and the Section 4.4 space-overhead model.

The paper itemizes the cache's memory overhead precisely:

* "The kernel uses 8 bytes per page in the range of addresses the
  compression cache might occupy" — slot descriptors, sized at boot for
  the maximum cache size;
* "a 24-byte header within each physical page frame that is mapped into
  the cache (0.6% overhead)";
* "a 36-byte header for each virtual page that has been compressed and
  placed in the cache";
* a static hash-table buffer for LZRW1 (16 KBytes as measured);
* 22 KBytes of additional kernel code.

Those constants, the per-slot state machine of Figure 2 (clean / dirty /
free / new), and the compressed-page header record live here.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..mem.page import PageId

#: Per-slot descriptor bytes, reserved at boot for the maximum cache size.
SLOT_DESCRIPTOR_BYTES = 8

#: Header within each physical frame mapped into the cache.
FRAME_HEADER_BYTES = 24

#: Header preceding each compressed virtual page in the cache.
COMPRESSED_PAGE_HEADER_BYTES = 36

#: LZRW1 hash-table buffer in the measured system (Section 4.4).
HASH_TABLE_BYTES = 16 * 1024

#: Kernel code-size growth from adding the compression cache.
CODE_SIZE_BYTES = 22 * 1024


class SlotState(enum.Enum):
    """State of one physical-page slot in the circular buffer (Figure 2)."""

    CLEAN = "clean"   # every compressed page in it is unmodified/on disk
    DIRTY = "dirty"   # holds modified data not yet on backing store
    FREE = "free"     # slot has no physical page associated with it
    NEW = "new"       # mapped but not yet containing data (tail only)


@dataclass(slots=True)
class CompressedPageHeader:
    """The one record the cache keeps per page (the 36-byte header).

    "Before each page there is a small header that describes the page,
    the size it compressed to, whether it contains dirty data, a link to
    the next page in the cache, and other information." (Section 4.2)
    """

    page_id: PageId
    payload: bytes
    dirty: bool
    inserted_at: float
    #: True when a current copy also exists on the backing store.
    on_backing_store: bool = False
    #: Content version the payload encodes; lets the VM recognize that an
    #: unmodified resident page still has a valid compressed copy here.
    content_version: int = -1
    #: Placement: byte offset, and the first and last frame overlapped.
    offset: int = 0
    first: int = 0
    last: int = 0
    #: Bytes this page consumes in the cache, header included.
    footprint: int = field(init=False)

    def __post_init__(self) -> None:
        self.footprint = len(self.payload) + COMPRESSED_PAGE_HEADER_BYTES


def cache_metadata_bytes(max_cache_frames: int, mapped_frames: int,
                         compressed_pages: int) -> int:
    """Total cache bookkeeping memory for the given configuration.

    Mirrors Section 4.4's accounting: slot descriptors are sized for the
    *maximum* cache, frame headers only for mapped frames, page headers
    only for pages currently compressed, plus the static hash table.
    """
    if min(max_cache_frames, mapped_frames, compressed_pages) < 0:
        raise ValueError("counts must be non-negative")
    if mapped_frames > max_cache_frames:
        raise ValueError(
            f"mapped frames {mapped_frames} exceed the boot-time maximum "
            f"{max_cache_frames}"
        )
    return (
        SLOT_DESCRIPTOR_BYTES * max_cache_frames
        + FRAME_HEADER_BYTES * mapped_frames
        + COMPRESSED_PAGE_HEADER_BYTES * compressed_pages
        + HASH_TABLE_BYTES
    )
