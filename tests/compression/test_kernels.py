"""Unit tests for the BDI, FPC, and C-Pack page kernels.

Each kernel gets: round trips over crafted pages exercising every
encoding arm, an effectiveness check on the content class it was built
for, raw fallback on incompressible input, and corrupt-payload
rejection (truncation, unknown headers, garbage) — decompress must
raise :class:`CorruptDataError`, never return wrong bytes or crash with
an unrelated exception.
"""

from __future__ import annotations

import hashlib
import struct

import pytest

from repro.compression import CorruptDataError, create
from repro.compression.bdi import (
    _PAGE_LINES,
    _PAGE_SAME8,
    _PAGE_ZERO,
    BdiCompressor,
)
from repro.compression.cpack import CpackCompressor
from repro.compression.fpc import FpcCompressor

PAGE = 4096

KERNELS = [BdiCompressor, FpcCompressor, CpackCompressor]


def random_page(seed: int, size: int = PAGE) -> bytes:
    out = bytearray()
    counter = 0
    while len(out) < size:
        out += hashlib.blake2b(
            seed.to_bytes(4, "little") + counter.to_bytes(4, "little"),
            digest_size=64,
        ).digest()
        counter += 1
    return bytes(out[:size])


def near_base_page(base: int = 0x7F001000, size: int = PAGE) -> bytes:
    """Pointer-ish values clustered near one base (BDI's home turf)."""
    words = [(base + (i * 7) % 100) & 0xFFFFFFFF for i in range(size // 4)]
    return struct.pack(f"<{len(words)}I", *words)


def small_int_page(size: int = PAGE) -> bytes:
    """Counters and small indices (FPC's home turf)."""
    words = [(i * 3) % 1000 for i in range(size // 4)]
    return struct.pack(f"<{len(words)}I", *words)


def repeated_word_page(size: int = PAGE) -> bytes:
    """A few distinct words recurring (C-Pack's dictionary turf)."""
    vocab = [0xDEADBEEF, 0x12345678, 0, 0xCAFED00D, 0xDEADBE01]
    words = [vocab[(i * i) % len(vocab)] for i in range(size // 4)]
    return struct.pack(f"<{len(words)}I", *words)


CRAFTED = [
    b"",
    b"\x00",
    b"ab",
    bytes(PAGE),                              # zero page
    b"\x11\x22\x33\x44\x55\x66\x77\x88" * (PAGE // 8),  # same-filled
    near_base_page(),
    small_int_page(),
    repeated_word_page(),
    random_page(1),
    random_page(2, size=100),                 # sub-line page + odd tail
    near_base_page(size=PAGE - 3),            # tail not word-aligned
    small_int_page(size=66),                  # one line + 2-byte tail
    b"The quick brown fox jumps over the lazy dog. " * 91,
]


@pytest.mark.parametrize("kernel_cls", KERNELS)
@pytest.mark.parametrize("data", CRAFTED, ids=range(len(CRAFTED)))
def test_round_trip_crafted(kernel_cls, data):
    kernel = kernel_cls()
    result = kernel.compress(data)
    assert result.original_size == len(data)
    assert kernel.decompress(result) == data


@pytest.mark.parametrize("kernel_cls", KERNELS)
def test_raw_fallback_on_incompressible(kernel_cls):
    result = kernel_cls().compress(random_page(3))
    assert result.stored_raw
    assert result.compressed_size == PAGE


@pytest.mark.parametrize("kernel_cls", KERNELS)
def test_cache_keys_are_distinct(kernel_cls):
    keys = {cls().result_cache_key() for cls in KERNELS}
    assert len(keys) == len(KERNELS)
    assert kernel_cls().result_cache_key() is not None


def test_bdi_compresses_near_base_data():
    result = BdiCompressor().compress(near_base_page())
    assert not result.stored_raw
    # 64-byte lines with 1-byte deltas: ~17/64 plus headers.
    assert result.compressed_size < PAGE // 3


def test_bdi_page_fast_paths():
    bdi = BdiCompressor()
    assert bdi.compress(bytes(PAGE)).compressed_size == 1
    assert bdi.compress(b"\x01\x02\x03\x04\x05\x06\x07\x08" * 512
                        ).compressed_size == 9


def test_fpc_compresses_small_integers():
    # 16-bit-representable words cost 3+16 bits against 32 raw: ~60%,
    # comfortably under the 4:3 keep threshold (75%).
    result = FpcCompressor().compress(small_int_page())
    assert not result.stored_raw
    assert result.compressed_size < (3 * PAGE) // 4


def test_cpack_compresses_repeated_words():
    result = CpackCompressor().compress(repeated_word_page())
    assert not result.stored_raw
    assert result.compressed_size < PAGE // 2


@pytest.mark.parametrize("kernel_cls", KERNELS)
def test_truncated_payload_raises(kernel_cls):
    kernel = kernel_cls()
    compressed = 0
    for data in (near_base_page(), small_int_page(),
                 repeated_word_page(), bytes(PAGE)):
        result = kernel.compress(data)
        if result.stored_raw:
            continue
        compressed += 1
        for cut in (1, result.compressed_size // 2,
                    result.compressed_size - 1):
            truncated = result.__class__(
                result.payload[:cut], result.original_size
            )
            if truncated.payload == result.payload:
                continue
            with pytest.raises(CorruptDataError):
                kernel.decompress(truncated)
    assert compressed >= 2, "kernel compressed too few probe pages"


@pytest.mark.parametrize("name", ["fpc", "cpack"])
def test_exhausted_bit_stream_names_its_kernel(name):
    """The shared bit reader reports the kernel whose payload ran dry,
    directly and behind an ``adaptive`` tag byte."""
    from repro.compression import CompressionResult
    from repro.compression.adaptive import KERNEL_TAGS

    result = create(name).compress(small_int_page())
    assert not result.stored_raw
    cut = result.payload[: result.compressed_size // 2]
    with pytest.raises(CorruptDataError, match=f"^{name}: bit stream"):
        create(name).decompress(CompressionResult(cut, PAGE))
    tagged = CompressionResult(bytes([KERNEL_TAGS[name]]) + cut, PAGE)
    with pytest.raises(CorruptDataError, match=f"^{name}: bit stream"):
        create("adaptive").decompress(tagged)


@pytest.mark.parametrize("kernel_cls", KERNELS)
def test_empty_payload_raises(kernel_cls):
    from repro.compression import CompressionResult

    with pytest.raises(CorruptDataError):
        kernel_cls().decompress(CompressionResult(b"", PAGE))


def test_bdi_rejects_unknown_page_header():
    from repro.compression import CompressionResult

    with pytest.raises(CorruptDataError):
        BdiCompressor().decompress(CompressionResult(bytes([250]), PAGE))


def test_bdi_rejects_malformed_fast_paths():
    from repro.compression import CompressionResult

    bdi = BdiCompressor()
    with pytest.raises(CorruptDataError):
        # Zero-page header with trailing garbage.
        bdi.decompress(CompressionResult(bytes([_PAGE_ZERO, 1]), PAGE))
    with pytest.raises(CorruptDataError):
        # Same-filled header with a short repeat value.
        bdi.decompress(CompressionResult(bytes([_PAGE_SAME8, 1, 2]), PAGE))
    with pytest.raises(CorruptDataError):
        # Line stream with an unknown line encoding.
        bdi.decompress(CompressionResult(bytes([_PAGE_LINES, 99]), PAGE))


@pytest.mark.parametrize("kernel_cls", [FpcCompressor, CpackCompressor])
def test_word_kernels_reject_absurd_word_count(kernel_cls):
    """A header claiming more words than the page holds must not be
    trusted (it would otherwise loop or return wrong-length output)."""
    from repro.compression import CompressionResult

    bogus = struct.pack("<I", 10**6) + b"\x00" * 32
    with pytest.raises(CorruptDataError):
        kernel_cls().decompress(CompressionResult(bogus, PAGE))
