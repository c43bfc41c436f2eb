"""The Python reference loops: the oracle every compiled kernel is held to.

The compiled library (:mod:`.compiled`, ``_kernels.c``) is the only path
a kernel runs.  This module keeps what it replaced, so that the tests
and ``perf``'s ``fast_kernel_speedup`` rows can hold the library to it:

* the seed repository's LZRW1 and LZSS kernels, verbatim
  (:class:`SeedLzrw1`, :class:`SeedLzss`): the paper's Table 1 ratios
  and every pinned payload depend on the compiled encoders emitting
  their bytes;
* :func:`decode_items`, the item decoder ``lzrw1`` and ``lzss`` share;
* the six word kernels' encoders and the ``rle`` and ``cpack``
  decoders.  (``bdi``, ``fpc``, ``wk`` and ``varint-delta`` decode in
  Python in their own modules: those decoders have no C twin yet.)

:data:`KERNELS` lays these out as a
:class:`~repro.compression.compiled.CompiledKernels`, and
:func:`reference` builds a registered kernel that runs them in place of
the library.  Nothing in the package imports this module
(``tests/test_import_graph.py`` holds that); do not optimize or "fix"
it: it is a reference, not a hot path.
"""

from __future__ import annotations

import struct
from typing import List, Optional, Tuple

from .base import CompressionResult, Compressor, CorruptDataError, create
from .bdi import (
    _DELTA_ENCODINGS, _ENC_RAW, _ENC_REPEAT8, _ENC_ZERO, _LINE,
    _PAGE_LINES, _PAGE_SAME8, _PAGE_ZERO, _from_bytes,
)
from .compiled import CompiledKernels
from .delta import _TAG_ASCENDING, _TAG_RAW, _TAG_TAIL
from .fpc import (
    _P_HIGHHALF, _P_MISS, _P_REPBYTE, _P_SIGN4, _P_SIGN8, _P_SIGN16,
    _P_TWOHALVES, _P_ZRUN,
)
from .wk import (
    _BitReader, _DICT_SIZE as _WK_DICT_SIZE, _LOW_BITS, _LOW_MASK,
    _TAG_EXACT, _TAG_MISS, _TAG_PARTIAL, _TAG_ZERO, _dict_slot,
)

_MAX_OFFSET = 4095
_MIN_MATCH = 3
_MAX_MATCH = 18
_GROUP = 16
_HASH_MULTIPLIER = 40543  # Williams's constant


# -- lzrw1 and lzss: the seed's kernels, verbatim -------------------------


class SeedLzrw1(Compressor):
    """The seed repository's LZRW1 encoder, byte for byte."""

    name = "seed-lzrw1"

    def __init__(self, table_bits: int = 12):
        if not 4 <= table_bits <= 20:
            raise ValueError(f"table_bits out of range: {table_bits}")
        self.table_bits = table_bits
        self._table_size = 1 << table_bits

    def _hash(self, b0: int, b1: int, b2: int) -> int:
        key = ((b0 << 8) ^ (b1 << 4) ^ b2) & 0xFFFF
        return ((_HASH_MULTIPLIER * key) >> 4) & (self._table_size - 1)

    def compress(self, data: bytes) -> CompressionResult:
        n = len(data)
        if n < _MIN_MATCH + 1:
            return CompressionResult(bytes(data), n, stored_raw=True)

        table = [-1] * self._table_size
        out = bytearray()
        items = bytearray()
        control = 0
        nitems = 0
        i = 0
        limit = n - _MIN_MATCH
        raw_threshold = n  # abandon if output can no longer beat raw

        while i < n:
            emitted_copy = False
            if i <= limit:
                b0, b1, b2 = data[i], data[i + 1], data[i + 2]
                h = self._hash(b0, b1, b2)
                cand = table[h]
                table[h] = i
                if cand >= 0 and 0 < i - cand <= _MAX_OFFSET:
                    max_len = min(_MAX_MATCH, n - i)
                    length = 0
                    while (
                        length < max_len
                        and data[cand + length] == data[i + length]
                    ):
                        length += 1
                    if length >= _MIN_MATCH:
                        offset = i - cand
                        items.append(((length - _MIN_MATCH) << 4) | (offset >> 8))
                        items.append(offset & 0xFF)
                        control |= 1 << nitems
                        i += length
                        emitted_copy = True
            if not emitted_copy:
                items.append(data[i])
                i += 1
            nitems += 1
            if nitems == _GROUP:
                out.append(control & 0xFF)
                out.append(control >> 8)
                out += items
                items.clear()
                control = 0
                nitems = 0
                if len(out) >= raw_threshold:
                    return CompressionResult(bytes(data), n, stored_raw=True)

        if nitems:
            out.append(control & 0xFF)
            out.append(control >> 8)
            out += items

        if len(out) >= n:
            return CompressionResult(bytes(data), n, stored_raw=True)
        return CompressionResult(bytes(out), n)

    def decompress(self, result: CompressionResult) -> bytes:
        if result.stored_raw:
            return result.payload
        payload = result.payload
        want = result.original_size
        out = bytearray()
        i = 0
        end = len(payload)
        while i < end and len(out) < want:
            if i + 2 > end:
                raise CorruptDataError("lzrw1: truncated control word")
            control = payload[i] | (payload[i + 1] << 8)
            i += 2
            for bit in range(_GROUP):
                if i >= end or len(out) >= want:
                    break
                if (control >> bit) & 1:
                    if i + 2 > end:
                        raise CorruptDataError("lzrw1: truncated copy item")
                    b0 = payload[i]
                    b1 = payload[i + 1]
                    i += 2
                    length = (b0 >> 4) + _MIN_MATCH
                    offset = ((b0 & 0x0F) << 8) | b1
                    if offset == 0 or offset > len(out):
                        raise CorruptDataError(
                            f"lzrw1: bad copy offset {offset} at output "
                            f"position {len(out)}"
                        )
                    start = len(out) - offset
                    for k in range(length):  # may self-overlap; copy bytewise
                        out.append(out[start + k])
                else:
                    out.append(payload[i])
                    i += 1
        if len(out) != want:
            raise CorruptDataError(
                f"lzrw1: decoded {len(out)} bytes, expected {want}"
            )
        return bytes(out)


class SeedLzss(Compressor):
    """The seed repository's chained-hash LZSS encoder, byte for byte."""

    name = "seed-lzss"

    def __init__(self, chain_depth: int = 16, lazy: bool = True):
        if chain_depth < 1:
            raise ValueError("chain_depth must be >= 1")
        self.chain_depth = chain_depth
        self.lazy = lazy

    @staticmethod
    def _hash(b0: int, b1: int, b2: int) -> int:
        key = ((b0 << 8) ^ (b1 << 4) ^ b2) & 0xFFFF
        return ((_HASH_MULTIPLIER * key) >> 4) & 0xFFF

    def _find_match(self, data: bytes, i: int, heads, chains) -> tuple:
        n = len(data)
        if i + _MIN_MATCH > n:
            return 0, 0
        h = self._hash(data[i], data[i + 1], data[i + 2])
        cand = heads[h]
        best_len = 0
        best_off = 0
        depth = self.chain_depth
        max_len = min(_MAX_MATCH, n - i)
        while cand >= 0 and depth > 0:
            off = i - cand
            if off > _MAX_OFFSET:
                break
            if off > 0 and data[cand + best_len] == data[i + best_len]:
                length = 0
                while length < max_len and data[cand + length] == data[i + length]:
                    length += 1
                if length > best_len:
                    best_len = length
                    best_off = off
                    if length == max_len:
                        break
            cand = chains[cand]
            depth -= 1
        if best_len < _MIN_MATCH:
            return 0, 0
        return best_len, best_off

    def _insert(self, data: bytes, i: int, heads, chains) -> None:
        if i + _MIN_MATCH <= len(data):
            h = self._hash(data[i], data[i + 1], data[i + 2])
            chains[i] = heads[h]
            heads[h] = i

    def compress(self, data: bytes) -> CompressionResult:
        n = len(data)
        if n < _MIN_MATCH + 1:
            return CompressionResult(bytes(data), n, stored_raw=True)

        heads = [-1] * 4096
        chains = [-1] * n
        out = bytearray()
        items = bytearray()
        control = 0
        nitems = 0
        i = 0

        while i < n:
            length, offset = self._find_match(data, i, heads, chains)
            if self.lazy and _MIN_MATCH <= length < _MAX_MATCH and i + 1 < n:
                self._insert(data, i, heads, chains)
                nlength, _ = self._find_match(data, i + 1, heads, chains)
                if nlength > length:
                    items.append(data[i])
                    i += 1
                    nitems += 1
                    if nitems == _GROUP:
                        out.append(control & 0xFF)
                        out.append(control >> 8)
                        out += items
                        items.clear()
                        control = 0
                        nitems = 0
                    continue
                inserted = True
            else:
                inserted = False

            if length >= _MIN_MATCH:
                items.append(((length - _MIN_MATCH) << 4) | (offset >> 8))
                items.append(offset & 0xFF)
                control |= 1 << nitems
                start = i if inserted else i
                if not inserted:
                    self._insert(data, i, heads, chains)
                for j in range(start + 1, i + length):
                    self._insert(data, j, heads, chains)
                i += length
            else:
                if not inserted:
                    self._insert(data, i, heads, chains)
                items.append(data[i])
                i += 1
            nitems += 1
            if nitems == _GROUP:
                out.append(control & 0xFF)
                out.append(control >> 8)
                out += items
                items.clear()
                control = 0
                nitems = 0

        if nitems:
            out.append(control & 0xFF)
            out.append(control >> 8)
            out += items

        if len(out) >= n:
            return CompressionResult(bytes(data), n, stored_raw=True)
        return CompressionResult(bytes(out), n)

    def decompress(self, result: CompressionResult) -> bytes:
        if result.stored_raw:
            return result.payload
        payload = result.payload
        want = result.original_size
        out = bytearray()
        i = 0
        end = len(payload)
        while i < end and len(out) < want:
            if i + 2 > end:
                raise CorruptDataError("lzss: truncated control word")
            control = payload[i] | (payload[i + 1] << 8)
            i += 2
            for bit in range(_GROUP):
                if i >= end or len(out) >= want:
                    break
                if (control >> bit) & 1:
                    if i + 2 > end:
                        raise CorruptDataError("lzss: truncated copy item")
                    b0 = payload[i]
                    b1 = payload[i + 1]
                    i += 2
                    length = (b0 >> 4) + _MIN_MATCH
                    offset = ((b0 & 0x0F) << 8) | b1
                    if offset == 0 or offset > len(out):
                        raise CorruptDataError(
                            f"lzss: bad copy offset {offset}"
                        )
                    start = len(out) - offset
                    for k in range(length):
                        out.append(out[start + k])
                else:
                    out.append(payload[i])
                    i += 1
        if len(out) != want:
            raise CorruptDataError(
                f"lzss: decoded {len(out)} bytes, expected {want}"
            )
        return bytes(out)


def decode_items(payload: bytes, original_size: int, name: str) -> bytes:
    """Decode the copy/literal item stream ``lzrw1`` and ``lzss`` share.

    ``name`` prefixes the :class:`CorruptDataError` messages; a stream
    that ends short of ``original_size`` or runs an item past it is the
    caller's to reject (:meth:`Compressor.decompress` does).  The loop
    reads one control bit per item; only an all-literal group is copied
    as a slice (a decoder restructured around literal runs measured
    0.82x: stored pages are match-heavy).
    """
    want = original_size
    out = bytearray()
    i = 0
    end = len(payload)
    olen = 0
    while i < end and olen < want:
        if i + 2 > end:
            raise CorruptDataError(f"{name}: truncated control word")
        control = payload[i] | (payload[i + 1] << 8)
        i += 2
        if control == 0:
            # All sixteen items are literals: one slice copy.
            take = _GROUP
            if take > end - i:
                take = end - i
            if take > want - olen:
                take = want - olen
            out += payload[i:i + take]
            i += take
            olen += take
            continue
        for bit in range(_GROUP):
            if i >= end or olen >= want:
                break
            if (control >> bit) & 1:
                if i + 2 > end:
                    raise CorruptDataError(f"{name}: truncated copy item")
                b0 = payload[i]
                b1 = payload[i + 1]
                i += 2
                length = (b0 >> 4) + _MIN_MATCH
                offset = ((b0 & 0x0F) << 8) | b1
                if offset == 0 or offset > olen:
                    raise CorruptDataError(
                        f"{name}: bad copy offset {offset} at output "
                        f"position {olen}"
                    )
                start = olen - offset
                if offset >= length:
                    out += out[start:start + length]
                elif offset == 1:
                    out += out[start:] * length
                else:
                    for k in range(length):  # self-overlapping copy
                        out.append(out[start + k])
                olen += length
            else:
                out.append(payload[i])
                i += 1
                olen += 1
    return bytes(out)


def lzrw1_encode(data: bytes, n: int, table_bits: int) -> Optional[bytes]:
    """``lzrw1_encode``'s twin: the seed's encoder, ``None`` for raw."""
    result = SeedLzrw1(table_bits).compress(data)
    return None if result.stored_raw else result.payload


def lzss_encode(data: bytes, n: int, chain_depth: int, lazy: bool
                ) -> Optional[bytes]:
    """``lzss_encode``'s twin: the seed's encoder, ``None`` for raw."""
    result = SeedLzss(chain_depth, lazy).compress(data)
    return None if result.stored_raw else result.payload


# -- rle ------------------------------------------------------------------

_RLE_MIN_RUN = 3
_RLE_MAX_RUN = 130
_MAX_LITERAL = 128
_PAST_SIZE = "rle: output runs past the declared size"


def rle_encode(data: bytes, n: int) -> Optional[bytes]:
    out = bytearray()
    literals = bytearray()
    i = 0
    while i < n:
        run = 1
        b = data[i]
        while i + run < n and run < _RLE_MAX_RUN and data[i + run] == b:
            run += 1
        if run >= _RLE_MIN_RUN:
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


def rle_decode(payload: bytes, n: int) -> bytes:
    # A block that would take the output past n is refused before it
    # is written, so no payload decodes to more than n bytes.
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


# -- bdi ------------------------------------------------------------------

def _encode_deltas(line: bytes, k: int, d: int) -> Optional[bytes]:
    """``base + deltas`` payload for one line, or None if a delta overflows."""
    base = _from_bytes(line[:k], "little")
    half = 1 << (8 * d - 1)
    span = half << 1
    out = bytearray(line[:k])
    for i in range(0, _LINE, k):
        delta = _from_bytes(line[i : i + k], "little") - base
        # Two's-complement fit check: delta in [-half, half).
        if not -half <= delta < half:
            return None
        out += (delta & (span - 1)).to_bytes(d, "little")
    return bytes(out)


def _encode_line(line: bytes) -> Tuple[int, bytes]:
    """Best ``(encoding, payload)`` for one whole 64-byte line."""
    if line.count(0) == _LINE:
        return _ENC_ZERO, b""
    first8 = line[:8]
    if first8 * (_LINE // 8) == line:
        return _ENC_REPEAT8, first8
    for enc, k, d in _DELTA_ENCODINGS:
        payload = _encode_deltas(line, k, d)
        if payload is not None:
            return enc, payload
    return _ENC_RAW, line


def bdi_encode(data: bytes, n: int) -> Optional[bytes]:
    data = bytes(data)  # count() and repetition: not a memoryview's
    if data.count(0) == n:
        return bytes([_PAGE_ZERO])
    # Header + value is 9 bytes, so the page must be at least two
    # repeats for this path to shrink it.
    if n >= 16 and n % 8 == 0 and data[:8] * (n // 8) == data:
        return bytes([_PAGE_SAME8]) + data[:8]
    nlines = n // _LINE
    if nlines == 0:
        return None
    out = bytearray([_PAGE_LINES])
    for i in range(0, nlines * _LINE, _LINE):
        enc, payload = _encode_line(data[i : i + _LINE])
        out.append(enc)
        out += payload
    out += data[nlines * _LINE :]
    return bytes(out)


# -- varint-delta ---------------------------------------------------------

#: Minimum ascending-run length worth switching modes for.
_DELTA_MIN_RUN = 4


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


def delta_encode(data: bytes, n: int) -> Optional[bytes]:
    nwords = n // 4
    if nwords < _DELTA_MIN_RUN:
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
        if run_length >= _DELTA_MIN_RUN:
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


# -- wk -------------------------------------------------------------------

class _BitWriter:
    """Packs fixed-width fields LSB-first into a byte stream (wk, fpc
    and cpack; the stream :class:`~repro.compression.wk._BitReader`
    reads)."""

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


def wk_encode(data: bytes, n: int) -> Optional[bytes]:
    nwords, tail_len = divmod(n, 4)
    if nwords == 0:
        return None
    words = struct.unpack(f"<{nwords}I", data[: nwords * 4])
    tail = data[nwords * 4 :]

    dictionary = [0] * _WK_DICT_SIZE
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


# -- fpc ------------------------------------------------------------------

_MAX_ZRUN = 8


def _signed32(word: int) -> int:
    return word - 0x100000000 if word >= 0x80000000 else word


def _half_fits8(half: int) -> bool:
    """True when the 16-bit halfword is an 8-bit sign-extended value."""
    return half < 0x80 or half >= 0xFF80


def fpc_encode(data: bytes, n: int) -> Optional[bytes]:
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


# -- cpack ----------------------------------------------------------------

_CPACK_DICT_SIZE = 16
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


def cpack_encode(data: bytes, n: int) -> Optional[bytes]:
    nwords, tail_len = divmod(n, 4)
    if nwords == 0:
        return None
    words = struct.unpack(f"<{nwords}I", data[: nwords * 4])
    tail = data[nwords * 4 :]

    # One bit-stream field per word: code, index and raw bits combined
    # LSB-first, one write each.
    stream = _BitWriter()
    write = stream.write
    dictionary = [0] * _CPACK_DICT_SIZE
    fill = 0  # next FIFO slot to replace
    # The scan the hardware does in parallel, as three lookups: where
    # each resident word sits (no word is resident twice: a pushed
    # word had no exact match), and every resident's top three and
    # top two bytes by FIFO slot, where ``index`` finds the first
    # partial match the 16-entry walk would.  The all-zero initial
    # entries are residents (a top-three of zero never gets here:
    # that word is a low byte).
    position = {}
    top3s = [0] * _CPACK_DICT_SIZE
    top2s = [0] * _CPACK_DICT_SIZE
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
        fill = (fill + 1) % _CPACK_DICT_SIZE

    return struct.pack("<I", nwords) + stream.flush() + tail


def cpack_decode(payload: bytes, n: int) -> bytes:
    if len(payload) < 4:
        raise CorruptDataError("cpack: header too short")
    (nwords,) = struct.unpack_from("<I", payload)
    tail_len = n - nwords * 4
    if tail_len < 0 or 4 + tail_len > len(payload):
        raise CorruptDataError("cpack: word count inconsistent with size")
    tail = payload[len(payload) - tail_len :] if tail_len else b""
    stream = _BitReader(payload[4 : len(payload) - tail_len], "cpack")
    read = stream.read

    dictionary = [0] * _CPACK_DICT_SIZE
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
        fill = (fill + 1) % _CPACK_DICT_SIZE
    return struct.pack(f"<{nwords}I", *words) + tail


#: The loops above in the compiled library's layout.
KERNELS = CompiledKernels(
    lzrw1_encode, lzss_encode, decode_items,
    rle_encode, bdi_encode, delta_encode, wk_encode, fpc_encode,
    cpack_encode, rle_decode, cpack_decode,
)


def reference(name: str, **kwargs) -> Compressor:
    """``create(name, **kwargs)`` running :data:`KERNELS` wherever the
    compiled library would run: an ``adaptive`` selector's candidates
    included.  Its payloads must equal the library's."""
    kernel = create(name, **kwargs)
    for part in (kernel, *getattr(kernel, "_kernels", ())):
        if part.uses_library:
            part._library = KERNELS
    return kernel
