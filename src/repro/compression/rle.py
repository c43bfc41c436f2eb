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
_PAST_SIZE = "rle: output runs past the declared size"


@register("rle")
class Rle(Compressor):
    """Escape-coded run-length encoder.

    ``rle_encode`` and ``rle_decode`` in the compiled library
    (:mod:`.compiled`) run unless ``fast`` is ``False`` or it did not
    load; then the numpy twin encodes where numpy is importable.  The
    loops below are the oracle ``fast=False`` runs.
    """

    uses_library = True

    def result_cache_key(self):
        # Stateless and parameter-free: one canonical payload per page
        # (the fast path is pinned bit-identical), so results are safe
        # to share process-wide.
        return ("rle",)

    def _encode(self, data: bytes, n: int) -> Optional[bytes]:
        if self._library is not None:
            return self._library.rle_encode(data, n)
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
        # A block that would take the output past n is refused before it
        # is written, so no payload decodes to more than n bytes.
        if self._library is not None:
            return self._library.rle_decode(payload, n)
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
                if len(out) + count > n:
                    raise CorruptDataError(_PAST_SIZE)
                out += payload[i : i + count]
                i += count
            else:
                if i >= end:
                    raise CorruptDataError("rle: truncated run")
                count = header - 0x7D
                if len(out) + count > n:
                    raise CorruptDataError(_PAST_SIZE)
                out += bytes([payload[i]]) * count
                i += 1
        return bytes(out)
