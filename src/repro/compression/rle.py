"""Byte-oriented run-length encoding.

A deliberately weak-but-cheap compressor used as an ablation point: it
represents the "very fast, poor ratio" corner of the speed/ratio plane of
Figure 1.  Pages full of repeated values (like ``thrasher``'s zero-filled
pages) compress extremely well; text pages barely compress at all, which
makes RLE useful for demonstrating the paper's 4:3 threshold logic.

Stored format: a sequence of ``(count, byte)`` pairs for runs of length
>= 3 is wasteful, so we use the common escape scheme instead — a literal
block header ``0x00..0x7F`` meaning "copy N+1 raw bytes", or a run header
``0x80..0xFF`` meaning "repeat next byte (header - 0x7D) times" (runs of
3..130 bytes).
"""

from __future__ import annotations

from typing import Optional

from .base import Compressor, register


@register("rle")
class Rle(Compressor):
    """Escape-coded run-length encoder: ``rle_encode`` and
    ``rle_decode`` in the compiled library (:mod:`.compiled`).  A
    block that would take the output past the declared size is refused
    before it is written, so no payload decodes to more than it."""

    uses_library = True

    def result_cache_key(self):
        # Stateless and parameter-free: one canonical payload per page,
        # so results are safe to share process-wide.
        return ("rle",)

    def _encode(self, data: bytes, n: int) -> Optional[bytes]:
        return self._library.rle_encode(data, n)

    def _decode(self, payload: bytes, n: int) -> bytes:
        return self._library.rle_decode(payload, n)
