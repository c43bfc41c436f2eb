"""Frequent-Pattern Compression: prefix-coded 32-bit word patterns.

FPC (Alameldeen & Wood, 2004) targets the same observation as WK —
in-memory words cluster around a handful of shapes — but spends its bits
on a static pattern table instead of a dictionary: each 32-bit word is
emitted as a 3-bit prefix naming its pattern, followed by only the bits
the pattern cannot predict.  Runs of zero words, the most frequent
pattern by far, collapse into a single prefixed run length.

=======  ====================================  ===========
prefix   pattern                               data bits
=======  ====================================  ===========
``0``    run of 1-8 zero words                 3 (run-1)
``1``    4-bit sign-extended                   4
``2``    8-bit sign-extended                   8
``3``    16-bit sign-extended                  16
``4``    halfword padded with zeros            16 (high half)
``5``    two halfwords, each 8-bit sign-ext.   16
``6``    one byte repeated four times          8
``7``    uncompressible word                   32
=======  ====================================  ===========

Prefixes and data bits share one LSB-first bit stream (the
:class:`~repro.compression.wk._BitWriter` layout) behind a small header;
trailing bytes that do not fill a word are stored verbatim.
"""

from __future__ import annotations

import struct
from typing import Optional

from . import vectorized
from .base import Compressor, CorruptDataError, register
from .wk import _BitReader, _BitWriter

_P_ZRUN = 0
_P_SIGN4 = 1
_P_SIGN8 = 2
_P_SIGN16 = 3
_P_HIGHHALF = 4
_P_TWOHALVES = 5
_P_REPBYTE = 6
_P_MISS = 7

_MAX_ZRUN = 8


def _signed32(word: int) -> int:
    return word - 0x100000000 if word >= 0x80000000 else word


def _half_fits8(half: int) -> bool:
    """True when the 16-bit halfword is an 8-bit sign-extended value."""
    return half < 0x80 or half >= 0xFF80


@register("fpc")
class FpcCompressor(Compressor):
    """Frequent-pattern prefix/mask coder for 32-bit words."""

    uses_library = True

    def result_cache_key(self):
        # Stateless and parameter-free: one canonical payload per page,
        # so results are safe to share process-wide.
        return ("fpc",)

    def _encode(self, data: bytes, n: int) -> Optional[bytes]:
        if self._library is not None:
            return self._library.fpc_encode(data, n)
        if self._use_fast:
            return vectorized.fpc_compress(data)
        nwords, tail_len = divmod(n, 4)
        if nwords == 0:
            return None
        words = struct.unpack(f"<{nwords}I", data[: nwords * 4])
        tail = data[nwords * 4 :]

        stream = _BitWriter()
        write = stream.write
        zrun = 0
        for word in words:
            if word == 0:
                zrun += 1
                if zrun == _MAX_ZRUN:
                    write(_P_ZRUN, 3)
                    write(zrun - 1, 3)
                    zrun = 0
                continue
            if zrun:
                write(_P_ZRUN, 3)
                write(zrun - 1, 3)
                zrun = 0
            signed = _signed32(word)
            if -8 <= signed < 8:
                write(_P_SIGN4, 3)
                write(signed, 4)
            elif -128 <= signed < 128:
                write(_P_SIGN8, 3)
                write(signed, 8)
            elif -32768 <= signed < 32768:
                write(_P_SIGN16, 3)
                write(signed, 16)
            elif word & 0xFFFF == 0:
                write(_P_HIGHHALF, 3)
                write(word >> 16, 16)
            elif _half_fits8(word & 0xFFFF) and _half_fits8(word >> 16):
                write(_P_TWOHALVES, 3)
                write(word & 0xFF, 8)
                write((word >> 16) & 0xFF, 8)
            elif word == (word & 0xFF) * 0x01010101:
                write(_P_REPBYTE, 3)
                write(word & 0xFF, 8)
            else:
                write(_P_MISS, 3)
                write(word, 32)
        if zrun:
            write(_P_ZRUN, 3)
            write(zrun - 1, 3)

        return struct.pack("<I", nwords) + stream.flush() + tail

    def _decode(self, payload: bytes, n: int) -> bytes:
        if len(payload) < 4:
            raise CorruptDataError("fpc: header too short")
        (nwords,) = struct.unpack_from("<I", payload)
        tail_len = n - nwords * 4
        if tail_len < 0 or 4 + tail_len > len(payload):
            raise CorruptDataError("fpc: word count inconsistent with size")
        tail = payload[len(payload) - tail_len :] if tail_len else b""
        stream = _BitReader(payload[4 : len(payload) - tail_len], "fpc")
        read = stream.read

        words = []
        while len(words) < nwords:
            prefix = read(3)
            if prefix == _P_ZRUN:
                words += [0] * (read(3) + 1)
            elif prefix == _P_SIGN4:
                value = read(4)
                words.append((value - 16 if value >= 8 else value)
                             & 0xFFFFFFFF)
            elif prefix == _P_SIGN8:
                value = read(8)
                words.append((value - 256 if value >= 128 else value)
                             & 0xFFFFFFFF)
            elif prefix == _P_SIGN16:
                value = read(16)
                words.append((value - 65536 if value >= 32768 else value)
                             & 0xFFFFFFFF)
            elif prefix == _P_HIGHHALF:
                words.append(read(16) << 16)
            elif prefix == _P_TWOHALVES:
                low = read(8)
                high = read(8)
                low16 = (low - 256 if low >= 128 else low) & 0xFFFF
                high16 = (high - 256 if high >= 128 else high) & 0xFFFF
                words.append(low16 | (high16 << 16))
            elif prefix == _P_REPBYTE:
                words.append(read(8) * 0x01010101)
            else:
                words.append(read(32))
        if len(words) != nwords:
            raise CorruptDataError("fpc: zero run overran word count")
        return struct.pack(f"<{nwords}I", *words) + tail
