"""WK-style word-oriented in-memory compressor.

The paper's conclusion calls for "application-specific techniques for
compressing data" and for algorithms tuned to the structure of memory
pages.  The family of compressors later published by Wilson and Kaplan
(WK4x4 / WKdm, used by subsequent compressed-caching work and eventually
by production compressed-memory systems) does exactly that: it treats a
page as 32-bit words and exploits the observation that in-memory integers
and pointers frequently repeat exactly or share their high 22 bits with a
recently seen word.

We include a faithful member of that family as the "future work" algorithm:

* a 16-entry direct-mapped dictionary of recently seen words;
* each input word is encoded with a 2-bit tag:
  ``0`` zero word, ``1`` exact dictionary match (4-bit index),
  ``2`` partial match — high 22 bits match a dictionary entry, low 10 bits
  transmitted verbatim (4-bit index + 10 bits), ``3`` miss (full 32 bits).

Tags, indices, low-bit groups, and full words are emitted into separate
streams that are concatenated with a small header, as in the published
design.  Trailing bytes that do not fill a word are stored verbatim.
"""

from __future__ import annotations

import struct
from typing import Optional

from . import vectorized
from .base import Compressor, CorruptDataError, register

_DICT_SIZE = 16
_TAG_ZERO = 0
_TAG_EXACT = 1
_TAG_PARTIAL = 2
_TAG_MISS = 3
_LOW_BITS = 10
_LOW_MASK = (1 << _LOW_BITS) - 1


def _dict_slot(word: int) -> int:
    """Direct-mapped dictionary hash on the high 22 bits."""
    return ((word >> _LOW_BITS) * 0x9E3779B1 >> 22) & (_DICT_SIZE - 1)


class _BitWriter:
    """Packs fixed-width fields LSB-first into a byte stream."""

    def __init__(self) -> None:
        self._acc = 0
        self._nbits = 0
        self.data = bytearray()

    def write(self, value: int, width: int) -> None:
        self._acc |= (value & ((1 << width) - 1)) << self._nbits
        self._nbits += width
        while self._nbits >= 8:
            self.data.append(self._acc & 0xFF)
            self._acc >>= 8
            self._nbits -= 8

    def flush(self) -> bytes:
        if self._nbits:
            self.data.append(self._acc & 0xFF)
            self._acc = 0
            self._nbits = 0
        return bytes(self.data)


class _BitReader:
    """Reads fixed-width LSB-first fields written by :class:`_BitWriter`.

    ``owner`` names the kernel whose payload this is, for error text.
    """

    def __init__(self, data: bytes, owner: str) -> None:
        self._data = data
        self._owner = owner
        self._pos = 0
        self._acc = 0
        self._nbits = 0

    def read(self, width: int) -> int:
        while self._nbits < width:
            if self._pos >= len(self._data):
                raise CorruptDataError(f"{self._owner}: bit stream exhausted")
            self._acc |= self._data[self._pos] << self._nbits
            self._pos += 1
            self._nbits += 8
        value = self._acc & ((1 << width) - 1)
        self._acc >>= width
        self._nbits -= width
        return value


@register("wk")
class WkCompressor(Compressor):
    """Word-oriented compressor in the WK4x4/WKdm family."""

    uses_library = True

    def result_cache_key(self):
        # No output-affecting parameters; the fast path is pinned
        # bit-identical, so results may be shared process-wide.
        return ("wk",)

    def _encode(self, data: bytes, n: int) -> Optional[bytes]:
        if self._library is not None:
            return self._library.wk_encode(data, n)
        if self._use_fast:
            return vectorized.wk_compress(data)
        nwords, tail_len = divmod(n, 4)
        if nwords == 0:
            return None
        words = struct.unpack(f"<{nwords}I", data[: nwords * 4])
        tail = data[nwords * 4 :]

        dictionary = [0] * _DICT_SIZE
        tags = _BitWriter()
        indices = _BitWriter()
        lows = _BitWriter()
        misses = bytearray()

        for word in words:
            if word == 0:
                tags.write(_TAG_ZERO, 2)
                continue
            slot = _dict_slot(word)
            entry = dictionary[slot]
            if entry == word:
                tags.write(_TAG_EXACT, 2)
                indices.write(slot, 4)
            elif (entry >> _LOW_BITS) == (word >> _LOW_BITS):
                tags.write(_TAG_PARTIAL, 2)
                indices.write(slot, 4)
                lows.write(word & _LOW_MASK, _LOW_BITS)
                dictionary[slot] = word
            else:
                tags.write(_TAG_MISS, 2)
                misses += struct.pack("<I", word)
                dictionary[slot] = word

        tag_bytes = tags.flush()
        index_bytes = indices.flush()
        low_bytes = lows.flush()
        header = struct.pack(
            "<IHHH", nwords, len(tag_bytes), len(index_bytes), len(low_bytes)
        )
        return header + tag_bytes + index_bytes + low_bytes + bytes(misses) + tail

    def _decode(self, payload: bytes, n: int) -> bytes:
        if len(payload) < 10:
            raise CorruptDataError("wk: header too short")
        nwords, tag_len, index_len, low_len = struct.unpack(
            "<IHHH", payload[:10]
        )
        pos = 10
        tags = _BitReader(payload[pos : pos + tag_len], "wk")
        pos += tag_len
        indices = _BitReader(payload[pos : pos + index_len], "wk")
        pos += index_len
        lows = _BitReader(payload[pos : pos + low_len], "wk")
        pos += low_len
        rest = payload[pos:]

        dictionary = [0] * _DICT_SIZE
        words = []
        miss_pos = 0
        for _ in range(nwords):
            tag = tags.read(2)
            if tag == _TAG_ZERO:
                words.append(0)
            elif tag == _TAG_EXACT:
                words.append(dictionary[indices.read(4)])
            elif tag == _TAG_PARTIAL:
                slot = indices.read(4)
                word = (dictionary[slot] & ~_LOW_MASK) | lows.read(_LOW_BITS)
                dictionary[slot] = word
                words.append(word)
            else:
                if miss_pos + 4 > len(rest):
                    raise CorruptDataError("wk: truncated miss stream")
                word = struct.unpack_from("<I", rest, miss_pos)[0]
                miss_pos += 4
                dictionary[_dict_slot(word)] = word
                words.append(word)
        return struct.pack(f"<{nwords}I", *words) + rest[miss_pos:]
