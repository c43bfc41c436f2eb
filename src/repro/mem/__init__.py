"""Physical and virtual memory substrate: pages, frames, LRU, segments."""

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "content": ("PageContent", "zero_page"),
    "frames": ("FrameOwner", "FramePool", "OutOfFramesError"),
    "lru": ("LruList",),
    "page": (
        "DEFAULT_PAGE_SIZE", "PageId", "PageState", "WORD_SIZE", "mbytes",
        "pages_for_bytes",
    ),
    "pagetable": (
        "CC_PTE_BYTES", "CC_PTE_EXTRA_BYTES", "PageTableEntry",
        "STD_PTE_BYTES", "page_table_overhead_bytes",
    ),
    "segment": ("AddressSpace", "ContentFactory", "Segment"),
})
