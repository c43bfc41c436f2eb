"""Application-specific compression: delta+varint posting lists.

Section 6: "One might also redesign specific applications, such as
databases, to keep some of their data structures in compressed format,
using application-specific techniques for compressing data."  The Gold
mailer's dominant structure is the inverted-index posting list — sorted
document ids — for which general-purpose LZ coding is far from optimal:
ascending 32-bit integers have no repeated *byte strings*, but their
*gaps* are tiny.

:class:`VarintDeltaCompressor` encodes a page as a sequence of 32-bit
words: ascending runs become first-value + varint-coded gaps; regions
that aren't ascending fall back to verbatim words.  On posting-array
pages it beats LZRW1 substantially; on arbitrary data it degrades to a
raw copy, so it is safe to use as a drop-in page compressor for an
index-heavy address space.

Format: a stream of chunks, each ``<tag:1><count:varint><body>`` where
tag 0x01 is an ascending run (body = first word varint + count-1 gap
varints, gaps >= 0) and tag 0x00 is verbatim words (body = count raw
little-endian words).  A trailing partial word (pages not divisible by
4) is appended raw after a 0x02 tag.
"""

from __future__ import annotations

import struct
from typing import List, Optional

from . import vectorized
from .base import Compressor, CorruptDataError, register

_TAG_RAW = 0
_TAG_ASCENDING = 1
_TAG_TAIL = 2

#: Minimum ascending-run length worth switching modes for.
_MIN_RUN = 4


def _write_varint(out: bytearray, value: int) -> None:
    if value < 0:
        raise ValueError(f"varint cannot encode negatives: {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _read_varint(data: bytes, pos: int) -> tuple:
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise CorruptDataError("varint: truncated input")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 42:
            raise CorruptDataError("varint: value too large")


@register("varint-delta")
class VarintDeltaCompressor(Compressor):
    """Posting-list codec: ascending 32-bit runs become varint gaps."""

    uses_library = True

    def result_cache_key(self):
        # No output-affecting parameters; the fast path is pinned
        # bit-identical, so results may be shared process-wide.
        return ("varint-delta",)

    def _encode(self, data: bytes, n: int) -> Optional[bytes]:
        if self._library is not None:
            return self._library.delta_encode(data, n)
        if self._use_fast:
            return vectorized.delta_compress(data)
        nwords = n // 4
        if nwords < _MIN_RUN:
            return None
        words = struct.unpack(f"<{nwords}I", data[: nwords * 4])
        tail = data[nwords * 4 :]

        out = bytearray()
        index = 0
        raw_buffer: List[int] = []

        def flush_raw() -> None:
            if not raw_buffer:
                return
            out.append(_TAG_RAW)
            _write_varint(out, len(raw_buffer))
            out.extend(
                struct.pack(f"<{len(raw_buffer)}I", *raw_buffer)
            )
            raw_buffer.clear()

        while index < nwords:
            run_end = index + 1
            while (
                run_end < nwords and words[run_end] >= words[run_end - 1]
            ):
                run_end += 1
            run_length = run_end - index
            if run_length >= _MIN_RUN:
                flush_raw()
                out.append(_TAG_ASCENDING)
                _write_varint(out, run_length)
                _write_varint(out, words[index])
                for position in range(index + 1, run_end):
                    _write_varint(out, words[position] - words[position - 1])
                index = run_end
            else:
                raw_buffer.append(words[index])
                index += 1
        flush_raw()
        if tail:
            out.append(_TAG_TAIL)
            _write_varint(out, len(tail))
            out.extend(tail)
        return bytes(out)

    def _decode(self, payload: bytes, n: int) -> bytes:
        out = bytearray()
        pos = 0
        end = len(payload)
        while pos < end:
            tag = payload[pos]
            pos += 1
            if tag == _TAG_ASCENDING:
                count, pos = _read_varint(payload, pos)
                if count < 1:
                    raise CorruptDataError("varint-delta: empty run")
                value, pos = _read_varint(payload, pos)
                out += struct.pack("<I", value & 0xFFFFFFFF)
                for _ in range(count - 1):
                    gap, pos = _read_varint(payload, pos)
                    value += gap
                    out += struct.pack("<I", value & 0xFFFFFFFF)
            elif tag == _TAG_RAW:
                count, pos = _read_varint(payload, pos)
                nbytes = count * 4
                if pos + nbytes > end:
                    raise CorruptDataError("varint-delta: truncated raw run")
                out += payload[pos : pos + nbytes]
                pos += nbytes
            elif tag == _TAG_TAIL:
                count, pos = _read_varint(payload, pos)
                if pos + count > end:
                    raise CorruptDataError("varint-delta: truncated tail")
                out += payload[pos : pos + count]
                pos += count
            else:
                raise CorruptDataError(f"varint-delta: bad tag {tag}")
        return bytes(out)
