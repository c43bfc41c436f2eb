"""The compiled library's word kernels: byte-identical to the loops.

``_kernels.c`` holds an encoder for each of ``rle``, ``bdi``,
``varint-delta``, ``wk``, ``fpc`` and ``cpack``, and decoders for
``rle`` and ``cpack`` (the word kernels whose payloads the benchmark
workloads store).  Two things must hold:

* *identity* — each kernel's default path (the compiled encoder where
  the library loads, else its numpy twin, else its loop) returns what
  its ``fast=False`` loop returns from ``_encode``, ``None`` included,
  for every length from 0 to 4,200 bytes (tails that fill no word or
  line), every buffer type, ``test_vectorized.py``'s boundary segments,
  the ``contentgen`` corpus, mixtures of its kinds, tiled random
  blocks, the ``kv-mixed`` PUT payloads of seeds 1-3 and pages each
  kernel just compresses;
* *one decoder* — on any bytes and any declared size, each compiled
  decoder returns its Python decoder's bytes or raises its
  :class:`CorruptDataError` message (``test_lz_decoder_robustness.py``
  sends the damaged payloads).
"""

from __future__ import annotations

import random
import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.compression import create
from repro.compression.base import CorruptDataError
from repro.compression.compiled import compiled_library
from repro.perf import _corpus_kinds
from repro.workloads.traffic import (
    PUT,
    TenantTraffic,
    TrafficSpec,
    generate_ops,
)
from tests.compression.test_lzrw1_compiled import compiler_works
from tests.compression.test_vectorized import structured_pages

PAGE = 4096
WORD_KERNELS = ("rle", "bdi", "varint-delta", "wk", "fpc", "cpack")
#: The compiled decoders, by kernel.
DECODERS = {"rle": "rle_decode", "cpack": "cpack_decode"}
LIBRARY = compiled_library()
needs_library = pytest.mark.skipif(
    LIBRARY is None, reason="the compiled library did not load")


def assert_one_encoding(page: bytes, wrap=bytes) -> None:
    """Every word kernel's default path encodes ``page`` (passed as
    ``wrap(page)``) as its loop does, and the loop's decoder reads what
    would be stored."""
    n = len(page)
    for name in WORD_KERNELS:
        loop = create(name, fast=False)
        want = loop._encode(page, n)
        assert create(name)._encode(wrap(page), n) == want, (name, n)
        if want is not None and len(want) < n:
            assert loop._decode(want, n) == page, (name, n)


def test_the_library_loads_where_a_compiler_works(tmp_path):
    if not compiler_works(tmp_path):
        pytest.skip("no working C compiler (CC, else sysconfig's)")
    assert LIBRARY is not None
    for name in WORD_KERNELS:
        assert create(name)._library is LIBRARY
        assert create(name, fast=False)._library is None


@st.composite
def sized_pages(draw) -> bytes:
    """0-4,200 bytes over 1- to 256-symbol alphabets: random, or a
    period of 1-300 symbols with sparse changes."""
    size = draw(st.integers(0, 4200))
    alphabet = draw(st.sampled_from((1, 2, 3, 16, 256)))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        return bytes(rng.choices(range(alphabet), k=size))
    period = rng.choices(range(alphabet), k=draw(st.integers(1, 300)))
    out = bytearray((bytes(period) * (size // len(period) + 1))[:size])
    for _ in range(draw(st.integers(0, 20)) if size else 0):
        out[rng.randrange(size)] = rng.randrange(alphabet)
    return bytes(out)


@settings(max_examples=400, deadline=None)
@given(page=st.one_of(sized_pages(), structured_pages()),
       wrap=st.sampled_from((bytes, bytearray, memoryview)))
@example(page=bytes(4200), wrap=bytes)
@example(page=b"\x01" * 4199, wrap=memoryview)
@example(page=bytes(range(256)) * 16 + b"xyz", wrap=bytearray)
def test_every_path_encodes_as_the_loop(page, wrap):
    assert_one_encoding(page, wrap)


def corpus() -> list:
    return [page for pages in _corpus_kinds(12).values() for page in pages]


def mixtures() -> list:
    """Pages cut from two or four kinds: structure in part of a page."""
    kinds = list(_corpus_kinds(2).values())
    rng = random.Random(31)
    pages = []
    for _ in range(60):
        parts = rng.choice((2, 4))
        span = PAGE // parts
        pages.append(b"".join(
            rng.choice(rng.choice(kinds))[i * span:(i + 1) * span]
            for i in range(parts)))
    return pages


def tiled_random_blocks() -> list:
    rng = random.Random(7)
    return [(rng.randbytes(size) * (PAGE // size + 1))[:PAGE]
            for size in (64, 256, 1024, 2048, 3000) for _ in range(4)]


def kv_payloads(seed: int) -> list:
    """The distinct PUT payloads ``kv-mixed`` sends at this seed."""
    traffic = TrafficSpec(
        ops=3000, seed=seed, zipf_s=1.1, read_fraction=0.75,
        delete_fraction=0.2, page_size=PAGE,
        tenants=(TenantTraffic("alpha", 3.0, 600),
                 TenantTraffic("beta", 1.0, 200)),
    )
    pages = {op.payload(traffic) for op in generate_ops(traffic)
             if op.op == PUT}
    return sorted(pages)


def near_bounds() -> list:
    """Random pages with one structure planted, each just compressible
    by the kernel it targets."""
    rng = random.Random(11)

    def planted(offset: int, block: bytes) -> bytes:
        page = bytearray(rng.randbytes(PAGE))
        page[offset:offset + len(block)] = block
        return bytes(page)

    def ascending(count: int, gap_bits: int) -> bytes:
        value = rng.randrange(1 << 31)
        words = []
        for _ in range(count):
            value = (value + rng.randrange(1 << gap_bits)) & 0xFFFFFFFF
            words.append(value)
        return struct.pack(f"<{count}I", *words)

    def narrow_line() -> bytes:      # bdi base 2, deltas 1
        base = rng.randrange(256, 1 << 16)
        return struct.pack("<32H", *[base + rng.randrange(-128, 128)
                                     for _ in range(32)])

    pages = [
        ascending(1024, 21),                              # varint-delta
        planted(1024, ascending(128, 20)),                # varint-delta
        planted(0, b"".join(bytes([b]) * 3 for b in range(256))),  # rle
        planted(512, bytes(128)),                         # bdi, fpc
    ]
    page = bytearray(rng.randbytes(PAGE))
    for line in (3, 9, 40):
        page[64 * line:64 * line + 64] = narrow_line()
    pages.append(bytes(page))                             # bdi
    page = bytearray(rng.randbytes(PAGE))
    for word in range(0, 1024, 8):
        page[4 * word + 2:4 * word + 4] = b"\x12\x34"
    pages.append(bytes(page))                             # wk, cpack
    page = bytearray(rng.randbytes(PAGE))
    for word in range(0, 1024, 9):
        page[4 * word + 2:4 * word + 4] = b"\x00\x00"
    pages.append(bytes(page))                             # fpc
    # One ascending chunk whose gaps need 4 varint bytes but for four
    # small items.
    value, words = 0, []
    for index in range(1024):
        words.append(value)
        value += 5 if index % 300 == 7 else rng.randrange(1 << 21, 1 << 22)
    pages.append(struct.pack("<1024I", *words))           # varint-delta
    # Random words, one in five a copy of the word before it.
    words = list(struct.unpack("<1024I", rng.randbytes(PAGE)))
    for index in range(1, 1024, 5):
        words[index] = words[index - 1]
    pages.append(struct.pack("<1024I", *words))           # wk, cpack
    return pages


SOURCES = {
    "corpus": corpus,
    "mixtures": mixtures,
    "tiled-random-blocks": tiled_random_blocks,
    "near-bounds": near_bounds,
    "kv-seed-1": lambda: kv_payloads(1),
    "kv-seed-2": lambda: kv_payloads(2),
    "kv-seed-3": lambda: kv_payloads(3),
}


@pytest.mark.parametrize("source", sorted(SOURCES))
def test_compiled_encoders_equal_the_python_loops(source):
    for page in SOURCES[source]():
        assert_one_encoding(page)


@st.composite
def segmented_pages(draw) -> bytes:
    """Segments of random bytes, runs, zero or small words, ascending
    words and repeated blocks."""
    size = draw(st.sampled_from((512, 1000, 4096, 8192)))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    out = bytearray()
    while len(out) < size:
        kind = draw(st.sampled_from(
            ("random", "random", "random", "run", "small-words",
             "ascending", "repeat")))
        length = draw(st.integers(1, 600))
        if kind == "random":
            out += rng.randbytes(length)
        elif kind == "run":
            out += bytes([rng.randrange(256)]) * min(length, 40)
        elif kind == "small-words":
            out += struct.pack(f"<{length // 4 + 1}I", *[
                rng.randrange(1 << rng.choice((4, 8, 16, 21)))
                for _ in range(length // 4 + 1)])
        elif kind == "ascending":
            value = rng.randrange(1 << 32)
            for _ in range(length // 4 + 1):
                value = (value + rng.randrange(1 << 22)) & 0xFFFFFFFF
                out += struct.pack("<I", value)
        elif out:
            start = rng.randrange(len(out))
            out += out[start:start + length]
    return bytes(out[:size])


@settings(max_examples=120, deadline=None)
@given(page=segmented_pages())
def test_compiled_encoders_equal_the_python_loops_on_generated_pages(page):
    assert_one_encoding(page)


def decoded(decode, payload: bytes, size: int):
    """What a decoder makes of ``payload``: its bytes, or its error."""
    try:
        return decode(payload, size)
    except CorruptDataError as error:
        return f"CorruptDataError: {error}"


def assert_one_decoder(name: str, payload: bytes, size: int):
    want = decoded(create(name, fast=False)._decode, payload, size)
    compiled = getattr(LIBRARY, DECODERS[name])
    assert decoded(compiled, payload, size) == want
    assert decoded(compiled, bytearray(payload), size) == want
    return want


@needs_library
@settings(max_examples=300, deadline=None)
@given(payload=st.binary(max_size=600), size=st.integers(0, 6000),
       name=st.sampled_from(sorted(DECODERS)))
def test_the_decoders_agree_on_any_bytes(name, payload, size):
    assert_one_decoder(name, payload, size)


@needs_library
def test_each_decoder_error_is_the_python_decoders():
    cases = {
        ("rle", b"\x05ab", 4096): "truncated literal block",
        ("rle", b"\x02abc\x80", 4096): "truncated run",
        ("rle", b"\xff\x00" * 2048, 4096):
            "output runs past the declared size",
        ("rle", b"\x03abcd", 3): "output runs past the declared size",
        ("cpack", b"\x01\x00\x00", 4): "header too short",
        ("cpack", b"\x02\x00\x00\x00", 4):
            "word count inconsistent with size",
        ("cpack", b"\x01\x00\x00\x00\x01", 4): "bit stream exhausted",
        ("cpack", b"\x01\x00\x00\x00\x0f\x00", 4):
            "unknown extension code 3",
    }
    for (name, payload, size), message in cases.items():
        assert assert_one_decoder(name, payload, size) == (
            f"CorruptDataError: {name}: {message}")
    # A payload that ends short is the envelope's to reject.
    assert assert_one_decoder("rle", b"\x81a", 4096) == b"aaaa"
