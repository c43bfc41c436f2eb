"""The compression cache: circular buffer, cleaner, gate, and allocator."""

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "allocator": (
        "AllocationBiases", "AllocatorCounters", "MemoryPool",
        "ThreeWayAllocator",
    ),
    "circular": ("CacheCounters", "CompressionCache"),
    "cleaner": ("CleanerPolicy",),
    "header": (
        "CODE_SIZE_BYTES", "COMPRESSED_PAGE_HEADER_BYTES",
        "CompressedPageHeader", "FRAME_HEADER_BYTES", "HASH_TABLE_BYTES",
        "SLOT_DESCRIPTOR_BYTES", "SlotState", "cache_metadata_bytes",
    ),
    "threshold": ("AdaptiveCompressionGate",),
})
