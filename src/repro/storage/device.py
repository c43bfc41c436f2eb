"""Backing-store device interface.

A device turns transfer requests into virtual seconds.  The simulator
never sleeps: devices *cost* operations, the clock advances by the result.
Concrete models are :class:`repro.storage.disk.DiskModel` (seek + rotation
+ media transfer, RZ57 preset) and
:class:`repro.storage.network.NetworkModel` (latency + bandwidth, Ethernet
and WaveLAN presets), covering the paper's two backing-store environments:
"small, slower local disks" and "slower wireless networks".
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from ..counters import Counters


@dataclass
class DeviceCounters(Counters):
    """Cumulative operation counters every device maintains."""

    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    seeks: int = 0
    busy_seconds: float = 0.0


class BackingDevice(ABC):
    """Abstract timing model for a backing store."""

    def __init__(self) -> None:
        self.counters = DeviceCounters()

    @abstractmethod
    def _transfer_seconds(self, nbytes: int, sequential: bool) -> float:
        """Raw cost of moving ``nbytes``; positioning included if random."""

    def read(self, nbytes: int, sequential: bool = False) -> float:
        """Cost one read of ``nbytes``; returns elapsed virtual seconds."""
        seconds = self._account(nbytes, sequential)
        self.counters.reads += 1
        self.counters.bytes_read += nbytes
        return seconds

    def write(self, nbytes: int, sequential: bool = False) -> float:
        """Cost one write of ``nbytes``; returns elapsed virtual seconds."""
        seconds = self._account(nbytes, sequential)
        self.counters.writes += 1
        self.counters.bytes_written += nbytes
        return seconds

    def _account(self, nbytes: int, sequential: bool) -> float:
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        seconds = self._transfer_seconds(nbytes, sequential)
        if not sequential:
            self.counters.seeks += 1
        self.counters.busy_seconds += seconds
        return seconds
