"""Frozen copies of the original pure-Python LZRW1/LZSS kernels.

The optimized kernels in :mod:`repro.compression.lzrw1` and
:mod:`repro.compression.lzss` promise *bit-identical* output to the
implementations this repository was seeded with — the paper's Table 1
ratios and every pinned payload depend on it.  This module preserves
those seed implementations verbatim (minus registry decoration) so

* the golden-output tests (``tests/compression/test_golden_kernels.py``)
  can diff the optimized encoders against the originals on a corpus, and
* the perf harness (``python -m repro.cli perf``) can measure the seed
  kernels on the same machine and record the speedup trajectory in
  ``BENCH_compression.json``.

Do not optimize or "fix" this file; it is a reference, not a hot path.
"""

from __future__ import annotations

from .base import CompressionResult, Compressor, CorruptDataError

_MAX_OFFSET = 4095
_MIN_MATCH = 3
_MAX_MATCH = 18
_GROUP = 16
_HASH_MULTIPLIER = 40543  # Williams's constant


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
