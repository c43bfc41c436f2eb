"""CPU-side cost model: references, traps, copies, (de)compression.

"The potential benefits of the compression cache depend on the
relationship between the speed of compression and the I/O bandwidth of
the system" (Section 1); "decompression is assumed to be twice as fast as
compression, as is roughly the case for algorithms such as LZRW1"
(Figure 1 caption).  The cost model makes those relationships explicit
knobs, with defaults calibrated to the measured platform:

* a DECstation 5000/200 (25-MHz R3000) runs LZRW1 at roughly 2 MB/s
  compressing, twice that decompressing;
* kernel page-fault handling costs a fraction of a millisecond;
* page copies move at memcpy speed (~12 MB/s on that machine);
* an in-memory reference from the thrasher loop costs ~2 µs.

Presets cover the paper's Section 6 outlook: hardware compression engines
and faster CPUs both raise the compression bandwidth relative to I/O.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

#: Decompression bandwidth multiplier over compression (paper: 2x).
DECOMPRESS_SPEEDUP = 2.0
#: One kernel<->user message round trip (Mach-style IPC, early-90s
#: microkernel hardware) — paid per external-pager crossing.
IPC_ROUNDTRIP_S = 2e-4


@dataclass(frozen=True)
class CostModel:
    """Costs of CPU-side operations, in seconds and bytes/second."""

    base_access_s: float = 2e-6
    fault_trap_s: float = 4e-4
    copy_bandwidth: float = 12e6
    compress_bandwidth: float = 2e6

    def __post_init__(self) -> None:
        if min(self.base_access_s, self.fault_trap_s) < 0:
            raise ValueError("costs must be non-negative")
        if min(self.copy_bandwidth, self.compress_bandwidth) <= 0:
            raise ValueError("bandwidths must be positive")

    @property
    def decompress_bandwidth(self) -> float:
        """Decompression bandwidth in bytes/second."""
        return self.compress_bandwidth * DECOMPRESS_SPEEDUP

    def compress_seconds(self, nbytes: int) -> float:
        """Time to compress ``nbytes`` of input."""
        return nbytes / self.compress_bandwidth

    def decompress_seconds(self, nbytes: int) -> float:
        """Time to decompress back to ``nbytes`` of output."""
        return nbytes / self.decompress_bandwidth

    def copy_seconds(self, nbytes: int) -> float:
        """Time to copy ``nbytes`` in memory."""
        return nbytes / self.copy_bandwidth

    # ------------------------------------------------------------------
    # Presets
    # ------------------------------------------------------------------

    @classmethod
    def decstation_5000_200(cls) -> "CostModel":
        """The measured platform's defaults."""
        return cls()

    @classmethod
    def hardware_compression(cls) -> "CostModel":
        """Section 6: "hardware compression, which would improve the
        disparity between compression speeds and I/O rates"."""
        return cls(compress_bandwidth=40e6, copy_bandwidth=40e6)

    @classmethod
    def faster_cpu(cls, factor: float) -> "CostModel":
        """Section 6: "faster processors, which would do the same thing
        for software compression" — scales every CPU-side cost."""
        if factor <= 0:
            raise ValueError(f"speedup factor must be positive: {factor}")
        base = cls()
        return replace(
            base,
            base_access_s=base.base_access_s / factor,
            fault_trap_s=base.fault_trap_s / factor,
            copy_bandwidth=base.copy_bandwidth * factor,
            compress_bandwidth=base.compress_bandwidth * factor,
        )
