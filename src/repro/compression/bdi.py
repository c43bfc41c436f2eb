"""Base-Delta-Immediate compression at cache-line granularity.

The paper observes (Section 3) that the compression-cache design "should
allow different compression algorithms to be used for different types of
data".  BDI (Pekhimenko et al., PACT 2012) is the canonical kernel for
numeric and pointer-dense pages: values within a cache line tend to sit
near a common base, so a line is stored as one base plus narrow deltas.

The page is split into 64-byte lines; each line independently tries a
fixed menu of encodings and keeps the smallest that fits:

=========  =====================================  ============
encoding   meaning                                payload size
=========  =====================================  ============
``0``      all-zero line                          0 bytes
``1``      one 8-byte value repeated              8 bytes
``2``      base 8, deltas 1 (8 elements)          16 bytes
``3``      base 4, deltas 1 (16 elements)         20 bytes
``4``      base 8, deltas 2                       24 bytes
``5``      base 2, deltas 1 (32 elements)         34 bytes
``6``      base 4, deltas 2                       36 bytes
``7``      base 8, deltas 4                       40 bytes
``8``      raw line                               64 bytes
=========  =====================================  ============

Each line contributes one header byte naming its encoding; deltas are
two's-complement ``value - base`` with the first element as the base.
Two page-level fast paths avoid the per-line walk entirely: an all-zero
page and a page that repeats a single 8-byte value are recognized with
two byte-string comparisons and stored in 1 and 9 bytes respectively.

Trailing bytes past the last whole line are stored verbatim (their
length is implied by ``original_size``).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from . import vectorized
from .base import Compressor, CorruptDataError, register

_LINE = 64

#: Page-level headers.
_PAGE_ZERO = 0
_PAGE_SAME8 = 1
_PAGE_LINES = 2

#: Line encodings, smallest payload first (the order they are tried).
#: Each delta entry is ``(encoding, base_width_k, delta_width_d)``.
_ENC_ZERO = 0
_ENC_REPEAT8 = 1
_ENC_RAW = 8
_DELTA_ENCODINGS: Tuple[Tuple[int, int, int], ...] = (
    (2, 8, 1),
    (3, 4, 1),
    (4, 8, 2),
    (5, 2, 1),
    (6, 4, 2),
    (7, 8, 4),
)
_DELTA_PARAMS = {enc: (k, d) for enc, k, d in _DELTA_ENCODINGS}

_from_bytes = int.from_bytes


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


@register("bdi")
class BdiCompressor(Compressor):
    """Base-delta-immediate page compressor (Pekhimenko-style)."""

    uses_library = True

    def result_cache_key(self):
        # Stateless and parameter-free: one canonical payload per page,
        # so results are safe to share process-wide.
        return ("bdi",)

    def _encode(self, data: bytes, n: int) -> Optional[bytes]:
        if self._library is not None:
            return self._library.bdi_encode(data, n)
        data = bytes(data)  # count() and repetition: not a memoryview's
        if data.count(0) == n:
            return bytes([_PAGE_ZERO])
        # Header + value is 9 bytes, so the page must be at least two
        # repeats for this path to shrink it.
        if n >= 16 and n % 8 == 0 and data[:8] * (n // 8) == data:
            return bytes([_PAGE_SAME8]) + data[:8]
        nlines, tail_len = divmod(n, _LINE)
        if nlines == 0:
            return None
        if self._use_fast:
            out = vectorized.bdi_compress_lines(data, nlines)
        else:
            stream = bytearray([_PAGE_LINES])
            for i in range(0, nlines * _LINE, _LINE):
                enc, payload = _encode_line(data[i : i + _LINE])
                stream.append(enc)
                stream += payload
            out = bytes(stream)
        if tail_len:
            out += data[nlines * _LINE :]
        return out

    def _decode(self, payload: bytes, n: int) -> bytes:
        if not payload:
            raise CorruptDataError("bdi: empty payload")
        header = payload[0]
        if header == _PAGE_ZERO:
            if len(payload) != 1:
                raise CorruptDataError("bdi: trailing bytes on zero page")
            return bytes(n)
        if header == _PAGE_SAME8:
            if len(payload) != 9 or n % 8 != 0:
                raise CorruptDataError("bdi: malformed same-filled page")
            return bytes(payload[1:9]) * (n // 8)
        if header != _PAGE_LINES:
            raise CorruptDataError(f"bdi: unknown page header {header}")
        out = bytearray()
        pos = 1
        end = len(payload)
        for _ in range(n // _LINE):
            if pos >= end:
                raise CorruptDataError("bdi: truncated line stream")
            enc = payload[pos]
            pos += 1
            if enc == _ENC_ZERO:
                out += bytes(_LINE)
            elif enc == _ENC_REPEAT8:
                if pos + 8 > end:
                    raise CorruptDataError("bdi: truncated repeat value")
                out += payload[pos : pos + 8] * (_LINE // 8)
                pos += 8
            elif enc == _ENC_RAW:
                if pos + _LINE > end:
                    raise CorruptDataError("bdi: truncated raw line")
                out += payload[pos : pos + _LINE]
                pos += _LINE
            else:
                params = _DELTA_PARAMS.get(enc)
                if params is None:
                    raise CorruptDataError(f"bdi: unknown encoding {enc}")
                k, d = params
                count = _LINE // k
                need = k + count * d
                if pos + need > end:
                    raise CorruptDataError("bdi: truncated delta block")
                base = _from_bytes(payload[pos : pos + k], "little")
                dpos = pos + k
                half = 1 << (8 * d - 1)
                span = half << 1
                mask = (1 << (8 * k)) - 1
                values: List[int] = []
                for _j in range(count):
                    delta = _from_bytes(payload[dpos : dpos + d], "little")
                    if delta >= half:
                        delta -= span
                    values.append((base + delta) & mask)
                    dpos += d
                for value in values:
                    out += value.to_bytes(k, "little")
                pos = dpos
        # Each line above decoded to _LINE bytes, so the envelope's size
        # check is also the check that the tail has its implied length.
        out += payload[pos:]
        return bytes(out)
