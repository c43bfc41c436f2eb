"""Store-only compressor (control / worst case).

With this algorithm the compression cache degenerates into an extra memory
copy with zero space savings — every page lands above the 4:3 threshold.
It exists so tests and benchmarks can isolate the cost of the cache
machinery itself from the benefit of compression.
"""

from __future__ import annotations

from .base import Compressor, register


@register("null")
class NullCompressor(Compressor):
    """Pass-through "compressor": never encodes, so every page is raw."""

    def _decode(self, payload: bytes, n: int) -> bytes:
        return payload  # an adaptive payload tagged ``null``
