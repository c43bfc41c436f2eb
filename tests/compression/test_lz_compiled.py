"""The compiled library's LZSS encoder and item decoder, and calls to
it from many threads.

``_kernels.c`` holds ``lzss_encode`` and ``lz_decode`` beside LZRW1's
encoder (``test_lzrw1_compiled.py`` holds that encoder and the loader).  Three
things must hold:

* *identity* — compiled ``lzss`` emits the frozen seed's bytes
  (:class:`~repro.compression._reference.SeedLzss`) for every
  search depth, with and without lazy matching, on every input length,
  alphabet and buffer type, and the reference kernel (the seed's
  encoder through :meth:`Compressor.compress`) agrees — for ``lzrw1``
  too on the word kernels' boundary corpus;
* *one decoder* — on any bytes and any declared size, the compiled
  decoder returns :func:`~repro.compression._reference.decode_items`'s
  bytes or raises its :class:`CorruptDataError` message;
* *threads* — the library's scratch is process-wide, and ctypes drops
  the GIL for a call, so threads calling it at once must still get
  what one thread alone gets.
"""

from __future__ import annotations

import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.compression import create
from repro.compression._reference import SeedLzss, decode_items, reference
from repro.compression.base import CorruptDataError
from repro.compression.compiled import compiled_library
from repro.compression.lzss import Lzss
from repro.perf import _corpus_kinds
from tests.compression.test_lzrw1_compiled import inputs
from tests.compression.test_word_kernels_compiled import boundary_corpus

LIBRARY = compiled_library()


@pytest.mark.parametrize("lazy", (True, False))
@pytest.mark.parametrize("chain_depth", (1, 4, 16, 64))
@settings(max_examples=25, deadline=None)
@given(data=inputs(), wrap=st.sampled_from((bytes, bytearray, memoryview)))
def test_compiled_lzss_equals_the_seed(chain_depth, lazy, data, wrap):
    want = SeedLzss(chain_depth, lazy).compress(data)
    got = Lzss(chain_depth, lazy).compress(wrap(data))
    assert got == want
    assert reference("lzss", chain_depth=chain_depth,
                     lazy=lazy).compress(data) == want
    if not got.stored_raw:
        assert LIBRARY.lz_decode(got.payload, len(data), "lzss") == data


def test_compiled_lzss_equals_the_seed_on_the_corpus():
    compiled, seed = Lzss(), SeedLzss()
    for pages in _corpus_kinds(6).values():
        for page in pages:
            result = compiled.compress(page)
            assert result == seed.compress(page)
            assert compiled.decompress(result) == page


@pytest.mark.parametrize("kernel", ["lzrw1", "lzss"])
def test_scalar_hash_path_matches_default(kernel):
    """The reference kernel (the seed's encoder) emits the default
    kernel's bytes (the compiled encoder)."""
    scalar, default = reference(kernel), create(kernel)
    for page in boundary_corpus():
        got = scalar.compress(page)
        want = default.compress(page)
        assert got.payload == want.payload
        assert got.stored_raw == want.stored_raw


def test_a_search_deeper_than_the_window_is_the_unbounded_search():
    """The depth is clamped to the 4,096 candidates the offset limit
    leaves in reach before it crosses into C, so no depth wraps."""
    page = bytes(4096)
    assert Lzss(10 ** 30).compress(page) == Lzss(4096).compress(page)


def decoded(decode, payload: bytes, size: int, name: str):
    """What a decoder makes of ``payload``: its bytes, or its error."""
    try:
        return decode(payload, size, name)
    except CorruptDataError as error:
        return f"CorruptDataError: {error}"


def assert_one_decoder(payload: bytes, size: int, name: str = "lzss"):
    want = decoded(decode_items, payload, size, name)
    assert decoded(LIBRARY.lz_decode, payload, size, name) == want
    assert decoded(LIBRARY.lz_decode, bytearray(payload), size, name) == want
    return want


@settings(max_examples=300, deadline=None)
@given(payload=st.binary(max_size=600), size=st.integers(0, 6000),
       name=st.sampled_from(("lzrw1", "lzss")))
def test_the_decoders_agree_on_any_bytes(payload, size, name):
    assert_one_decoder(payload, size, name)


def test_each_decoder_error_is_the_python_decoders():
    copy = bytes([0xF0, 0x01])      # length 18, offset 1
    cases = {
        b"\x00": "truncated control word",
        b"\x01\x00\x41": "truncated copy item",
        b"\x01\x00" + copy: "bad copy offset 1 at output position 0",
        b"\x02\x00A\x00\x05": "bad copy offset 5 at output position 1",
        b"\x00\x00" + b"A" * 16 + b"\x01": "truncated control word",
    }
    for payload, message in cases.items():
        assert assert_one_decoder(payload, 4096) == (
            f"CorruptDataError: lzss: {message}")
    # A copy may run past the declared size; the caller rejects that.
    assert assert_one_decoder(b"\x02\x00A" + copy, 5) == b"A" * 19


def thread_pages() -> list:
    return [page for pages in _corpus_kinds(4).values() for page in pages]


#: Every kernel with entry points in the library.
THREAD_KERNELS = ("lzrw1", "lzss", "rle", "bdi", "varint-delta", "wk",
                  "fpc", "cpack")


def test_threads_get_what_one_thread_gets():
    """Four threads compress and decompress distinct pages through every
    kernel with entry points in the library, with a thread switch every
    microsecond: every payload and every decoded page equals the serial
    result."""
    kernels = tuple(create(name) for name in THREAD_KERNELS)
    pages = thread_pages()
    serial = [[kernel.compress(page) for kernel in kernels]
              for page in pages]
    rounds = 6
    wrong = []

    def work(start: int) -> None:
        for _ in range(rounds):
            for index in range(start, len(pages), 4):
                for kernel, want in zip(kernels, serial[index]):
                    result = kernel.compress(pages[index])
                    if result != want or (
                            kernel.decompress(result) != pages[index]):
                        wrong.append((kernel.name, index))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(start,))
                   for start in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []
