"""Numpy-vectorized fast paths for the byte/word kernels.

The scalar kernels in :mod:`repro.compression.rle`, :mod:`~.wk`,
:mod:`~.delta`, :mod:`~.fpc` and :mod:`~.bdi` walk their input one
byte, word or line at a time in the interpreter, which caps them around
a few MB/s.  This module holds drop-in replacements that move the
data-parallel part of each algorithm — run-boundary detection, word
and line classification, slot hashing, bit packing — into numpy, while
keeping the *stored format bit-identical* to the scalar encoders.
(:mod:`~.cpack` keeps its one sequential loop and takes only the field
packer from here.)  That identity is load-bearing: the golden RunResult
digests, the shared kernel-result cache, and every ratio the figures
report assume one canonical payload per (algorithm, page).
``tests/compression/test_vectorized.py`` diffs every payload against the
scalar kernels across the full content corpus.

A twin returns what its kernel's ``_encode`` returns — the encoding, or
``None`` where the scalar encoder gives up before it starts — never a
result: whether the page is stored raw is :meth:`Compressor.compress`'s
one comparison (this module does not import :mod:`~.base`; ``base``
imports it).

numpy is an *optional* dependency (the ``repro[fast]`` extra).  When it
is missing, :func:`enabled` reports ``False`` and every kernel falls
back to its scalar loop — same output, just slower.  ``Compressor``'s
``fast=`` constructor flag is resolved once, by :func:`enabled`, and has
two meanings: ``False`` forces the scalar loop (A/B benchmarking,
debugging); ``None`` (the default) and ``True`` are one value —
vectorize when numpy is importable, silently scalar when it is not
(never an ImportError).
"""

from __future__ import annotations

import struct
from typing import Optional

try:  # optional [fast] extra; every caller falls back to scalar loops
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via the no-numpy CI job
    _np = None

HAVE_NUMPY = _np is not None


def enabled(flag: Optional[bool]) -> bool:
    """Resolve a tri-state ``fast`` flag against numpy availability."""
    if flag is False:
        return False
    return HAVE_NUMPY


def capability() -> str:
    """One-line report of the fast-kernel capability for perf output."""
    if not HAVE_NUMPY:
        return (
            "fast kernels: unavailable (numpy not installed; "
            "install repro[fast]) — scalar fallback active"
        )
    return (
        f"fast kernels: numpy {_np.__version__} "
        "(rle/wk/varint-delta/fpc/bdi vectorized, cpack bit packing)"
    )


# --------------------------------------------------------------------------
# RLE — vectorized run-boundary detection (see rle.py for the format).

_RLE_MIN_RUN = 3
_RLE_MAX_RUN = 130
_RLE_MAX_LITERAL = 128


def _emit_literals(out: bytearray, data: bytes, start: int, end: int) -> None:
    """Emit the literal span ``data[start:end]`` in <=128-byte blocks."""
    for off in range(start, end, _RLE_MAX_LITERAL):
        stop = off + _RLE_MAX_LITERAL
        if stop > end:
            stop = end
        out.append(stop - off - 1)
        out += data[off:stop]


def rle_compress(data: bytes) -> bytes:
    """Bit-identical fast path for :meth:`repro.compression.rle.Rle._encode`.

    Maximal equal-byte runs are located in one numpy pass (boundary =
    adjacent inequality); only runs of length >= 3 are then visited in
    python, chunked at 130 exactly like the scalar scan, with any <3
    leftover rejoining the following literal span — the byte sequence the
    scalar encoder's greedy loop produces.
    """
    n = len(data)
    out = bytearray()
    arr = _np.frombuffer(data, _np.uint8)
    change = _np.flatnonzero(arr[1:] != arr[:-1])
    starts = _np.concatenate(([0], change + 1))
    lengths = _np.concatenate((change + 1, [n])) - starts
    long_mask = lengths >= _RLE_MIN_RUN
    lit_start = 0
    for pos, length in zip(
        starts[long_mask].tolist(), lengths[long_mask].tolist()
    ):
        _emit_literals(out, data, lit_start, pos)
        byte = data[pos]
        remaining = length
        while remaining >= _RLE_MIN_RUN:
            take = remaining if remaining <= _RLE_MAX_RUN else _RLE_MAX_RUN
            out.append(0x7D + take)
            out.append(byte)
            pos += take
            remaining -= take
        lit_start = pos  # a 1-2 byte leftover joins the next literals
    _emit_literals(out, data, lit_start, n)
    return bytes(out)


# --------------------------------------------------------------------------
# The shared bit packer of the prefix-coded kernels (fpc, cpack).


def pack_fields(values, widths) -> bytes:
    """LSB-first variable-width packing, identical to ``wk._BitWriter``.

    ``values[i]`` occupies ``widths[i]`` bits (1..64, value already
    masked to its width) starting where field ``i - 1`` ended.  Fields
    are laid into 64-bit little-endian words: cumulative bit offsets
    name each field's word and shift, the fields starting in one word
    are OR-ed together with ``reduceat`` (offsets ascend, so a word's
    fields are contiguous), and the one field per word that crosses its
    upper edge spills its high bits into the next.
    """
    if len(values) == 0:
        return b""
    values = _np.asarray(values, _np.uint64)
    widths = _np.asarray(widths)
    ends = _np.cumsum(widths, dtype=_np.int64)
    total = int(ends[-1])
    offsets = ends - widths
    word = offsets >> 6
    shift = (offsets & 63).astype(_np.uint64)
    out = _np.zeros((total + 63) >> 6, "<u8")
    first = _np.flatnonzero(word[1:] != word[:-1]) + 1
    out[: int(word[-1]) + 1] = _np.bitwise_or.reduceat(
        values << shift, _np.concatenate(([0], first))
    )
    spill = _np.flatnonzero(ends > ((word + 1) << 6))
    out[word[spill] + 1] |= values[spill] >> (_np.uint64(64) - shift[spill])
    return out.tobytes()[: (total + 7) >> 3]


# --------------------------------------------------------------------------
# WK — vectorized word extraction, slot hashing and stream packing.

_WK_DICT_SIZE = 16
_WK_LOW_BITS = 10
_WK_LOW_MASK = (1 << _WK_LOW_BITS) - 1


def _pack_bits(values, width: int) -> bytes:
    """LSB-first fixed-width packing, identical to ``wk._BitWriter``.

    ``values`` is an integer array.  Kept beside :func:`pack_fields`
    because it is faster for one narrow width (a bit-matrix
    ``packbits``, no offset arithmetic).
    """
    if len(values) == 0:
        return b""
    v = values.astype(_np.uint16)
    bits = (v[:, None] >> _np.arange(width, dtype=_np.uint16)) & 1
    return _np.packbits(
        bits.astype(_np.uint8).reshape(-1), bitorder="little"
    ).tobytes()


def wk_compress(data: bytes) -> Optional[bytes]:
    """Bit-identical fast path for ``WkCompressor._encode``.

    The direct-mapped dictionary looks sequential but does not depend
    on what matched: after any non-zero word its slot holds that word
    (an exact match found it there; a partial match and a miss both
    store it) and zero words never touch it.  So the entry a word is
    compared with is the previous non-zero word of the same slot — or
    the initial 0 — which one stable ``argsort`` by slot gives for the
    whole page.  The rest is elementwise: the multiplicative slot hash
    (computed in uint64 so the 54-bit product matches python's
    arbitrary-precision arithmetic), the three-way classification, the
    2-bit tag / 4-bit index / 10-bit low-bits stream packing, and an
    all-zero-page short circuit for the most common page in the corpus.
    """
    n = len(data)
    nwords = n // 4
    if nwords == 0:
        return None
    words_arr = _np.frombuffer(data, "<u4", count=nwords)
    tail = data[nwords * 4 :]

    if not words_arr.any():
        tag_bytes = bytes((2 * nwords + 7) // 8)
        return (
            struct.pack("<IHHH", nwords, len(tag_bytes), 0, 0)
            + tag_bytes
            + tail
        )

    nonzero = _np.flatnonzero(words_arr)
    words = words_arr[nonzero]
    high = words >> _WK_LOW_BITS
    slots = ((high.astype(_np.uint64) * 0x9E3779B1) >> 22) & (
        _WK_DICT_SIZE - 1
    )
    # Group by slot, page order kept within a slot: each word's entry is
    # its predecessor in the group.  A group's first word should meet
    # the empty entry, 0, and meets the last word of the slot before
    # instead — which classifies the same: another slot means another
    # prefix, so both are misses, and prefix 0 (which 0 would partially
    # match) lives in slot 0, the one group whose first word meets 0.
    order = _np.argsort(slots, kind="stable")
    grouped = words[order]
    previous = _np.empty_like(grouped)
    previous[0] = 0
    previous[1:] = grouped[:-1]
    entries = _np.empty_like(words)
    entries[order] = previous

    exact = entries == words
    miss = (entries >> _WK_LOW_BITS) != high  # exact implies equal highs
    partial = ~(exact | miss)
    tags = _np.zeros(nwords, _np.uint8)  # 0 zero word
    tags[nonzero] = 3 - 2 * exact - partial  # 1 exact, 2 partial, 3 miss

    tag_bytes = _pack_bits(tags, 2)
    index_bytes = _pack_bits(slots[~miss], 4)
    low_bytes = _pack_bits(words[partial] & _WK_LOW_MASK, _WK_LOW_BITS)
    return (
        struct.pack(
            "<IHHH", nwords, len(tag_bytes), len(index_bytes), len(low_bytes)
        )
        + tag_bytes
        + index_bytes
        + low_bytes
        + words[miss].tobytes()
        + tail
    )


# --------------------------------------------------------------------------
# varint-delta — vectorized ascending-segment detection and gap coding.

_DELTA_TAG_RAW = 0
_DELTA_TAG_ASCENDING = 1
_DELTA_TAG_TAIL = 2
_DELTA_MIN_RUN = 4


def _write_varint(out: bytearray, value: int) -> None:
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def delta_compress(data: bytes) -> Optional[bytes]:
    """Bit-identical fast path for ``VarintDeltaCompressor._encode``.

    The scalar greedy scan emits one ascending chunk per maximal
    non-descending word segment of length >= 4, and folds every other
    word into pending raw chunks — so the segment decomposition can be
    computed wholesale from ``words[1:] < words[:-1]``.  Raw regions are
    sliced straight out of the input (the words are already raw
    little-endian), and all-small gap vectors are emitted in one numpy
    cast instead of per-gap varint calls.
    """
    n = len(data)
    nwords = n // 4
    if nwords < _DELTA_MIN_RUN:
        return None
    words = _np.frombuffer(data, "<u4", count=nwords)
    tail = data[nwords * 4 :]

    signed = words.astype(_np.int64)
    gaps_all = _np.diff(signed)  # gap word i -> i+1 lives at index i
    descents = _np.flatnonzero(gaps_all < 0)
    seg_starts = _np.concatenate(([0], descents + 1))
    seg_ends = _np.concatenate((descents + 1, [nwords]))
    long_mask = seg_ends - seg_starts >= _DELTA_MIN_RUN
    long_starts = seg_starts[long_mask]
    first_words = words[long_starts].tolist()

    out = bytearray()
    out_append = out.append
    raw_start = 0
    for start, end, first in zip(
        long_starts.tolist(), seg_ends[long_mask].tolist(), first_words
    ):
        if raw_start != start:
            out_append(_DELTA_TAG_RAW)
            _write_varint(out, start - raw_start)
            out += data[raw_start * 4 : start * 4]
        out_append(_DELTA_TAG_ASCENDING)
        _write_varint(out, end - start)
        _write_varint(out, first)
        gaps = gaps_all[start : end - 1]
        if end - start <= 32:
            # Tiny segments (index pages produce hundreds): per-element
            # numpy reductions cost more than a plain loop.
            for gap in gaps.tolist():
                if gap < 0x80:
                    out_append(gap)
                else:
                    _write_varint(out, gap)
        elif int(gaps.max()) < 0x80:
            out += gaps.astype(_np.uint8).tobytes()
        else:
            for gap in gaps.tolist():
                _write_varint(out, gap)
        raw_start = end
    if raw_start != nwords:
        out.append(_DELTA_TAG_RAW)
        _write_varint(out, nwords - raw_start)
        out += data[raw_start * 4 : nwords * 4]
    if tail:
        out.append(_DELTA_TAG_TAIL)
        _write_varint(out, len(tail))
        out += tail
    return bytes(out)


# --------------------------------------------------------------------------
# FPC — every word classified at once (see fpc.py for the pattern table).

_FPC_MAX_ZRUN = 8
# Data bits that follow each 3-bit prefix, indexed by prefix.
_FPC_DATA_BITS = (3, 4, 8, 16, 16, 16, 8, 32)


def fpc_compress(data: bytes) -> Optional[bytes]:
    """Bit-identical fast path for ``FpcCompressor._encode``.

    The seven word patterns are independent per-word tests, written here
    as wrapping unsigned compares (``w + 8 < 16`` is ``-8 <= signed < 8``)
    and applied lowest priority first so the highest-priority match is
    the one left standing.  A zero run is cut into tokens of at most 8
    from its start, so a zero word opens a token exactly when its
    distance from the run start is a multiple of 8; the token's length
    is the distance to the run end, capped.  Each surviving position
    then contributes one ``prefix | data << 3`` field.
    """
    n = len(data)
    nwords = n // 4
    if nwords == 0:
        return None
    words = _np.frombuffer(data, "<u4", count=nwords)
    u32 = _np.uint32

    # The data field defaults to the word itself, masked to the
    # pattern's width at the end; only prefixes 0, 4 and 5 differ.
    prefix = _np.full(nwords, 7, _np.uint8)  # uncompressible
    value = words.astype(_np.uint64)
    low = words & u32(0xFF)
    prefix[words == low * u32(0x01010101)] = 6  # repeated byte
    halves = words.view("<u2").reshape(nwords, 2)
    two = ((halves + _np.uint16(0x80)) < 0x100).all(axis=1)
    prefix[two] = 5  # two sign-extended halfwords: their low bytes
    value[two] = (low | ((words >> u32(8)) & u32(0xFF00)))[two]
    high = (words & u32(0xFFFF)) == 0
    prefix[high] = 4  # zero low half: the high half
    value[high] = words[high] >> u32(16)
    prefix[(words + u32(0x8000)) < 0x10000] = 3  # 16-bit sign-extended
    prefix[(words + u32(0x80)) < 0x100] = 2  # 8-bit
    prefix[(words + u32(8)) < 16] = 1  # 4-bit

    zero = words == 0
    if zero.any():
        index = _np.arange(nwords)
        # Run start: one past the last non-zero word at or before here.
        run_start = _np.maximum.accumulate(_np.where(zero, 0, index + 1))
        # Run end: the next non-zero word at or after here.
        run_end = _np.minimum.accumulate(
            _np.where(zero, nwords, index)[::-1]
        )[::-1]
        head = zero & ((index - run_start) % _FPC_MAX_ZRUN == 0)
        prefix[head] = 0
        value[head] = _np.minimum(run_end - index, _FPC_MAX_ZRUN)[head] - 1
        keep = head | ~zero
        prefix = prefix[keep]
        value = value[keep]

    bits = _np.array(_FPC_DATA_BITS, _np.int64)[prefix]
    value &= (_np.uint64(1) << bits.astype(_np.uint64)) - _np.uint64(1)
    stream = pack_fields(
        prefix.astype(_np.uint64) | (value << _np.uint64(3)), bits + 3
    )
    return struct.pack("<I", nwords) + stream + data[nwords * 4 :]


# --------------------------------------------------------------------------
# BDI — every line's encoding menu evaluated at once (see bdi.py).

_BDI_LINE = 64
_BDI_PAGE_LINES = 2
_BDI_ENC_REPEAT8 = 1
_BDI_ENC_RAW = 8
# base width k -> ((encoding, delta width d), ...).  Encodings are
# numbered in the order the scalar menu tries them, so the first fit is
# the smallest fitting code.
_BDI_MENU = {8: ((2, 1), (4, 2), (7, 4)), 4: ((3, 1), (6, 2)), 2: ((5, 1),)}
# Stored size of a line under each encoding, header byte included.
_BDI_SIZES = (1, 9, 17, 21, 25, 35, 37, 41, 65)


def bdi_compress_lines(data: bytes, nlines: int) -> bytes:
    """The per-line stream of ``BdiCompressor._encode``, bit-identical.

    ``data`` holds at least ``nlines`` whole 64-byte lines; the caller
    keeps the page-level shortcuts, the tail and the raw fallback.  The
    page is viewed as ``(lines, 64 / k)`` little-endian integers for each
    base width ``k``; a delta fits ``d`` bytes when the ``k``-byte
    wrapped difference, read as signed, lies in ``[-half, half)`` *and*
    has the sign of the true difference (a distance past half the
    ``k``-byte range wraps back into reach, which the scalar encoder's
    unbounded integers never do).  Headers, bases and deltas are then
    scattered into one output array at each line's cumulative offset.
    """
    body = _np.frombuffer(data, _np.uint8, count=nlines * _BDI_LINE)
    lines = body.reshape(nlines, _BDI_LINE)
    enc = _np.full(nlines, _BDI_ENC_RAW, _np.uint8)
    packed = {}
    for k, menu in _BDI_MENU.items():
        values = body.view(f"<u{k}").reshape(nlines, _BDI_LINE // k)
        base = values[:, :1]
        delta = values - base
        signed = delta.view(f"<i{k}")
        unwrapped = (signed >= 0) == (values >= base)
        if k == 8:
            same = ~delta.any(axis=1)
            enc[same] = _BDI_ENC_REPEAT8
            enc[same & (base[:, 0] == 0)] = 0
        for code, d in menu:
            half = 1 << (8 * d - 1)
            fits = (signed >= -half) & (signed < half) & unwrapped
            enc[fits.all(axis=1) & (enc > code)] = code
            packed[code] = (k, delta, f"<u{d}")

    sizes = _np.array(_BDI_SIZES, _np.int64)[enc]
    ends = _np.cumsum(sizes)
    starts = ends - sizes
    out = _np.empty(1 + int(ends[-1]), _np.uint8)
    out[0] = _BDI_PAGE_LINES
    out[1 + starts] = enc
    for code in _np.flatnonzero(_np.bincount(enc)).tolist():
        rows = _np.flatnonzero(enc == code)
        at = 2 + starts[rows][:, None]
        if code == _BDI_ENC_RAW:
            out[at + _np.arange(_BDI_LINE)] = lines[rows]
        elif code == _BDI_ENC_REPEAT8:
            out[at + _np.arange(8)] = lines[rows, :8]
        elif code:
            k, delta, dtype = packed[code]
            out[at + _np.arange(k)] = lines[rows, :k]
            low = delta[rows].astype(dtype).view(_np.uint8)
            out[at + k + _np.arange(low.shape[1])] = low
    return out.tobytes()
