"""Backing-store substrate: device models, block FS, swap layers, cache.

:class:`LogLocation`, the log store's page -> record map entry, is a
``NamedTuple``: it unpacks and compares as ``(segment, offset, nbytes,
crc32, seq)``.
"""

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "backing": ("BackingStore", "WriteOutTarget"),
    "blockfs": (
        "BlockFile", "BlockFileSystem", "FsCounters", "PartialWritePolicy",
    ),
    "buffercache": ("BufferCache", "BufferCacheCounters"),
    "compressed_buffercache": (
        "CompressedBufferCache", "CompressedCacheCounters",
    ),
    "device": ("BackingDevice", "DeviceCounters"),
    "disk": ("DiskModel",),
    "fragstore": ("FragStoreCounters", "FragmentLocation", "FragmentStore"),
    "lfs": ("LfsCounters", "LogStructuredFS"),
    "logstore": (
        "LogLocation", "LogStoreConfig", "LogStoreCounters",
        "LogStructuredStore", "RecoveryStats",
    ),
    "network": ("NetworkModel",),
    "swap": ("StandardSwap", "SwapCounters"),
})
