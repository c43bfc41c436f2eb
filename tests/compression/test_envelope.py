"""The kernel contract, held where it is written: ``Compressor``'s
``compress`` / ``decompress`` envelope around ``_encode`` / ``_decode``.

The caches and stores keep payloads only and read the raw flag back from
lengths (``CompressionResult.from_payload``), so *stored raw exactly when
the payload is not smaller* has to hold for every registered name at
every size — the empty page and the one-byte page included.
"""

from __future__ import annotations

import random

import pytest

from repro.compression import (
    CompressionResult,
    Compressor,
    CorruptDataError,
    available,
    compiled,
    create,
)
from repro.workloads import contentgen

SIZES = (0, 1, 2, 3, 63, 64, 65, 4095, 4096, 4099)


def _contents(size: int):
    """Zero, constant, random and ``contentgen`` bytes, ``size`` long."""
    rng = random.Random(size)
    text = contentgen.text_page_clustered(size, contentgen.make_dictionary())
    return {
        "zero": bytes(size),
        "constant": b"\xa5" * size,
        "random": rng.randbytes(size),
        "text": (text * (size // len(text) + 1))[:size],
        "index": (contentgen.index_page(size) * 2)[:size],
    }


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("name", available())
def test_raw_flag_is_the_length_comparison(name, size):
    compressor = create(name)
    for kind, data in _contents(size).items():
        result = compressor.compress(data)
        where = f"{name} on {size} {kind} bytes"
        assert result.original_size == size, where
        assert result.stored_raw == (len(result.payload) >= size), where
        assert CompressionResult.from_payload(
            result.payload, size) == result, where
        assert compressor.decompress(result) == data, where


class _Planted(Compressor):
    """A kernel whose two hooks do as the test says."""

    name = "planted"

    def __init__(self, encode=None, decode=None):
        super().__init__()
        self.encode = encode
        self.decode = decode
        self.decoded = []

    def _encode(self, data, n):
        return self.encode(data, n)

    def _decode(self, payload, n):
        self.decoded.append(payload)
        return self.decode(payload, n)


class TestPlantedKernels:
    def test_an_encoding_of_exactly_n_bytes_is_stored_raw(self):
        data = b"sixteen bytes ok"
        kernel = _Planted(lambda data, n: b"x" * n)
        result = kernel.compress(data)
        assert result == CompressionResult(data, len(data), stored_raw=True)
        smaller = _Planted(lambda data, n: b"x" * (n - 1)).compress(data)
        assert smaller == CompressionResult(b"x" * 15, 16)

    def test_none_is_stored_raw_and_never_decoded(self):
        data = bytearray(b"gave up early")
        kernel = _Planted(lambda data, n: None)
        result = kernel.compress(data)
        assert result.stored_raw and result.payload == bytes(data)
        assert type(result.payload) is bytes
        assert kernel.decompress(result) == data
        assert kernel.decoded == []

    def test_the_empty_page_never_reaches_the_kernel(self):
        def encode(data, n):
            raise AssertionError("_encode called on an empty page")

        assert _Planted(encode).compress(b"") == CompressionResult(
            b"", 0, stored_raw=True)

    @pytest.mark.parametrize("delta", (-1, 1))
    def test_a_decoder_off_by_one_byte_is_corrupt_data(self, delta):
        kernel = _Planted(decode=lambda payload, n: bytes(n + delta))
        with pytest.raises(CorruptDataError) as excinfo:
            kernel.decompress(CompressionResult(b"abc", 10))
        message = str(excinfo.value)
        assert message.startswith("planted: ")
        assert f"decoded {10 + delta} bytes, expected 10" in message

    def test_the_message_names_the_registered_name(self):
        """A page declared one byte longer than it is, through each
        kernel (the selector's error may be its tagged kernel's own)."""
        page = (b"abcdefgh" * 64 + bytes(range(256))) * 2
        for name in sorted(set(available()) - {"adaptive"}):
            compressor = create(name)
            result = compressor.compress(page)
            if result.stored_raw:
                continue
            wrong = CompressionResult(result.payload, len(page) + 1)
            with pytest.raises(CorruptDataError) as excinfo:
                compressor.decompress(wrong)
            assert str(excinfo.value).startswith(f"{name}: "), name


class TestFastResolution:
    """The ``fast`` flag is deleted: every kernel has one path."""

    @pytest.mark.parametrize("name", available())
    def test_every_kernel_takes_the_three_values(self, name):
        """``None``, ``True`` and ``False``, the three values the deleted
        ``fast`` flag took, are each refused; every kernel resolves to
        one library, the compiled one where it has entry points there."""
        for fast in (None, True, False):
            with pytest.raises(TypeError):
                create(name, fast=fast)
        compressor = create(name)
        assert not hasattr(compressor, "fast")
        assert compressor._library is (
            compiled.compiled_library() if compressor.uses_library
            else None)

    @pytest.mark.parametrize("name", available())
    def test_false_never_reaches_the_library(self, name, monkeypatch):
        """Nothing runs a kernel without the library: where it cannot be
        built, every kernel that needs it (the selector through its
        candidates) fails when it is made, and ``null`` never asks."""
        def refused():
            raise compiled.CompiledLibraryError("no compiler here")

        monkeypatch.setattr(compiled, "compiled_library", refused)
        if name != "null":
            with pytest.raises(compiled.CompiledLibraryError,
                               match="no compiler here"):
                create(name)
            return
        compressor = create(name)
        for data in _contents(4096).values():
            assert compressor.decompress(compressor.compress(data)) == data

    def test_lz_parameters_and_cache_keys_are_unchanged(self):
        lzrw1 = create("lzrw1", table_bits=10)
        assert lzrw1.result_cache_key() == ("lzrw1", 10)
        lzss = create("lzss", chain_depth=4, lazy=False)
        assert lzss.result_cache_key() == ("lzss", 4, False)
        assert create("lzrw1").result_cache_key() == ("lzrw1", 12)
        assert create("lzss").result_cache_key() == ("lzss", 16, True)
