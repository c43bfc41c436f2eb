"""C-Pack: pattern codes over a small FIFO word dictionary.

C-Pack (Chen et al., 2010) is the hardware cache-compression design the
DSCC-style simulators model: each 32-bit word is matched against a small
dictionary of recently seen words and emitted as a short code naming how
much of it matched.  Unlike WK's direct-mapped slots, the dictionary is
a FIFO that fills on every unmatched word, so repeated pointers and
structure fields converge on cheap dictionary hits after one miss.

========  =========================================  ==========
code      pattern                                    total bits
========  =========================================  ==========
``00``    zero word                                  2
``01``    miss: full 32-bit word (pushed to FIFO)    34
``10``    exact dictionary match (4-bit index)       6
``1100``  high 16 bits match (index + 2 raw bytes)   24
``1101``  zero except low byte                       12
``1110``  high 24 bits match (index + 1 raw byte)    16
========  =========================================  ==========

Codes and raw bits share one LSB-first bit stream behind a word-count
header; partial matches push the new word into the FIFO exactly as the
decoder will, keeping both sides in lockstep.  Trailing bytes that do
not fill a word are stored verbatim.
"""

from __future__ import annotations

import struct
from typing import Optional

from .base import Compressor, CorruptDataError, register
from .wk import _BitReader, _BitWriter

_DICT_SIZE = 16
_INDEX_BITS = 4

#: Two-bit primary codes; ``11`` selects a two-bit extension.
_C_ZERO = 0b00
_C_MISS = 0b01
_C_EXACT = 0b10
_C_EXT = 0b11
_X_HIGH16 = 0b00  # mmxx: top half matches, low 16 bits raw
_X_LOWBYTE = 0b01  # zzzx: zero except the low byte
_X_HIGH24 = 0b10  # mmmx: top three bytes match, low byte raw
#: The extension codes as the low four bits of an encoder field.
_F_HIGH16 = _C_EXT | _X_HIGH16 << 2
_F_LOWBYTE = _C_EXT | _X_LOWBYTE << 2
_F_HIGH24 = _C_EXT | _X_HIGH24 << 2


@register("cpack")
class CpackCompressor(Compressor):
    """Small-dictionary pattern matcher in the C-Pack family.

    ``cpack_encode`` and ``cpack_decode`` in the compiled library
    (:mod:`.compiled`) run unless ``fast`` is ``False`` or it did not
    load.  Otherwise the FIFO walk below runs, packing its bit stream
    through ``_BitWriter``.
    """

    uses_library = True

    def result_cache_key(self):
        # No output-affecting parameters; the fast path is pinned
        # bit-identical, so results may be shared process-wide.
        return ("cpack",)

    def _encode(self, data: bytes, n: int) -> Optional[bytes]:
        if self._library is not None:
            return self._library.cpack_encode(data, n)
        nwords, tail_len = divmod(n, 4)
        if nwords == 0:
            return None
        words = struct.unpack(f"<{nwords}I", data[: nwords * 4])
        tail = data[nwords * 4 :]

        # One bit-stream field per word: code, index and raw bits combined
        # LSB-first, one write each.
        stream = _BitWriter()
        write = stream.write
        dictionary = [0] * _DICT_SIZE
        fill = 0  # next FIFO slot to replace
        # The scan the hardware does in parallel, as three lookups: where
        # each resident word sits (no word is resident twice: a pushed
        # word had no exact match), and every resident's top three and
        # top two bytes by FIFO slot, where ``index`` finds the first
        # partial match the 16-entry walk would.  The all-zero initial
        # entries are residents (a top-three of zero never gets here:
        # that word is a low byte).
        position = {}
        top3s = [0] * _DICT_SIZE
        top2s = [0] * _DICT_SIZE
        for word in words:
            if word == 0:
                write(_C_ZERO, 2)
                continue
            if word < 0x100:
                write(_F_LOWBYTE | word << 4, 12)
                continue
            pos = position.get(word)
            if pos is not None:
                write(_C_EXACT | pos << 2, 6)
                continue
            top3 = word >> 8
            top2 = word >> 16
            if top2 not in top2s:
                write(_C_MISS | word << 2, 34)
            elif top3 in top3s:
                write(_F_HIGH24 | top3s.index(top3) << 4 | (word & 0xFF) << 8,
                      16)
            else:
                write(_F_HIGH16 | top2s.index(top2) << 4
                      | (word & 0xFFFF) << 8, 24)
            # Partial matches and misses push the word, replacing the
            # oldest entry; the decoder mirrors this exactly.
            old = dictionary[fill]
            if old:
                del position[old]
            dictionary[fill] = word
            position[word] = fill
            top3s[fill] = top3
            top2s[fill] = top2
            fill = (fill + 1) % _DICT_SIZE

        return struct.pack("<I", nwords) + stream.flush() + tail

    def _decode(self, payload: bytes, n: int) -> bytes:
        if self._library is not None:
            return self._library.cpack_decode(payload, n)
        if len(payload) < 4:
            raise CorruptDataError("cpack: header too short")
        (nwords,) = struct.unpack_from("<I", payload)
        tail_len = n - nwords * 4
        if tail_len < 0 or 4 + tail_len > len(payload):
            raise CorruptDataError("cpack: word count inconsistent with size")
        tail = payload[len(payload) - tail_len :] if tail_len else b""
        stream = _BitReader(payload[4 : len(payload) - tail_len], "cpack")
        read = stream.read

        dictionary = [0] * _DICT_SIZE
        fill = 0
        words = []
        for _ in range(nwords):
            code = read(2)
            if code == _C_ZERO:
                words.append(0)
                continue
            if code == _C_EXACT:
                words.append(dictionary[read(_INDEX_BITS)])
                continue
            if code == _C_MISS:
                word = read(32)
            else:  # _C_EXT
                ext = read(2)
                if ext == _X_LOWBYTE:
                    words.append(read(8))
                    continue
                if ext == _X_HIGH24:
                    base = dictionary[read(_INDEX_BITS)]
                    word = (base & 0xFFFFFF00) | read(8)
                elif ext == _X_HIGH16:
                    base = dictionary[read(_INDEX_BITS)]
                    word = (base & 0xFFFF0000) | read(16)
                else:
                    raise CorruptDataError(
                        f"cpack: unknown extension code {ext}"
                    )
            words.append(word)
            dictionary[fill] = word
            fill = (fill + 1) % _DICT_SIZE
        return struct.pack(f"<{nwords}I", *words) + tail
