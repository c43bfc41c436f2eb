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

from . import vectorized
from .base import Compressor, CorruptDataError, register

_MIN_RUN = 3
_MAX_RUN = 130
_MAX_LITERAL = 128


@register("rle")
class Rle(Compressor):
    """Escape-coded run-length encoder."""

    def result_cache_key(self):
        # Stateless and parameter-free: one canonical payload per page
        # (the fast path is pinned bit-identical), so results are safe
        # to share process-wide.
        return ("rle",)

    def _encode(self, data: bytes, n: int) -> Optional[bytes]:
        if self._use_fast:
            return vectorized.rle_compress(data)
        out = bytearray()
        literals = bytearray()
        i = 0
        while i < n:
            run = 1
            b = data[i]
            while i + run < n and run < _MAX_RUN and data[i + run] == b:
                run += 1
            if run >= _MIN_RUN:
                while literals:
                    chunk = literals[:_MAX_LITERAL]
                    out.append(len(chunk) - 1)
                    out += chunk
                    del literals[:_MAX_LITERAL]
                out.append(0x7D + run)
                out.append(b)
                i += run
            else:
                literals.append(b)
                i += 1
        while literals:
            chunk = literals[:_MAX_LITERAL]
            out.append(len(chunk) - 1)
            out += chunk
            del literals[:_MAX_LITERAL]
        return bytes(out)

    def _decode(self, payload: bytes, n: int) -> bytes:
        out = bytearray()
        i = 0
        end = len(payload)
        while i < end:
            header = payload[i]
            i += 1
            if header < _MAX_LITERAL:
                count = header + 1
                if i + count > end:
                    raise CorruptDataError("rle: truncated literal block")
                out += payload[i : i + count]
                i += count
            else:
                if i >= end:
                    raise CorruptDataError("rle: truncated run")
                out += bytes([payload[i]]) * (header - 0x7D)
                i += 1
        return bytes(out)
