"""Backing-store substrate: device models, block FS, swap layers, cache.

:class:`LogLocation`, the log store's page -> record map entry, is a
``NamedTuple``: it unpacks and compares as ``(segment, offset, nbytes,
crc32, seq)``.
"""

from .backing import BackingStore, WriteOutTarget
from .blockfs import BlockFile, BlockFileSystem, FsCounters, PartialWritePolicy
from .buffercache import BufferCache, BufferCacheCounters
from .compressed_buffercache import (
    CompressedBufferCache,
    CompressedCacheCounters,
)
from .device import BackingDevice, DeviceCounters
from .disk import DiskModel
from .fragstore import FragmentLocation, FragmentStore, FragStoreCounters
from .lfs import LfsCounters, LogStructuredFS
from .logstore import (
    LogLocation,
    LogStoreConfig,
    LogStoreCounters,
    LogStructuredStore,
    RecoveryStats,
)
from .network import NetworkModel
from .swap import StandardSwap, SwapCounters

__all__ = [
    "BackingDevice",
    "BackingStore",
    "BlockFile",
    "BlockFileSystem",
    "BufferCache",
    "BufferCacheCounters",
    "CompressedBufferCache",
    "CompressedCacheCounters",
    "DeviceCounters",
    "DiskModel",
    "FragStoreCounters",
    "FragmentLocation",
    "FragmentStore",
    "FsCounters",
    "LfsCounters",
    "LogLocation",
    "LogStoreConfig",
    "LogStoreCounters",
    "LogStructuredFS",
    "LogStructuredStore",
    "NetworkModel",
    "RecoveryStats",
    "PartialWritePolicy",
    "StandardSwap",
    "SwapCounters",
    "WriteOutTarget",
]
