"""The compiled library's word kernels: byte-identical to the loops.

``_kernels.c`` holds an encoder for each of ``rle``, ``bdi``,
``varint-delta``, ``wk``, ``fpc`` and ``cpack``, and decoders for
``rle`` and ``cpack`` (the word kernels whose payloads the benchmark
workloads store).  Two things must hold:

* *identity* — each kernel's compiled encoder returns what its
  reference loop (:mod:`repro.compression._reference`) returns from
  ``_encode``, ``None`` included, for every length
  from 0 to 4,200 bytes (tails that fill no word or line), every buffer
  type, named boundary segments (:func:`structured_pages`), the
  ``contentgen`` corpus, mixtures of its kinds, tiled random blocks,
  the ``kv-mixed`` PUT payloads of seeds 1-3 and pages each kernel just
  compresses;
* *one format* — an aggregate SHA-256 of each kernel's payloads over a
  fixed corpus is pinned (:data:`GOLDEN_DIGESTS`), so a coordinated
  edit of the compiled encoder and its loop is caught, and C-Pack's
  payloads also equal the 16-entry scan its loop replaced
  (:func:`reference_cpack`);
* *one decoder* — on any bytes and any declared size, each compiled
  decoder returns its reference decoder's bytes or raises its
  :class:`CorruptDataError` message (``test_lz_decoder_robustness.py``
  sends the damaged payloads).
"""

from __future__ import annotations

import hashlib
import random
import struct
from typing import List

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.compression import create
from repro.compression._reference import _BitWriter, reference
from repro.compression.base import CorruptDataError
from repro.compression.bdi import _DELTA_ENCODINGS
from repro.compression.compiled import compiled_library
from repro.compression.wk import _dict_slot
from repro.perf import _corpus_kinds
from repro.workloads.traffic import (
    PUT,
    TenantTraffic,
    TrafficSpec,
    generate_ops,
)
from tests.compression.test_golden_kernels import golden_corpus

PAGE = 4096
WORD_KERNELS = ("rle", "bdi", "varint-delta", "wk", "fpc", "cpack")
#: The compiled decoders, by kernel.
DECODERS = {"rle": "rle_decode", "cpack": "cpack_decode"}
LIBRARY = compiled_library()


#: Aggregate SHA-256 of (payload + raw-flag byte) over
#: :func:`boundary_corpus`, computed from the reference loops.  Pinned: a change
#: here is a breaking format change, not a refactor.
GOLDEN_DIGESTS = {
    "rle": "d48a8de6b18b808c94b9ba2b4ccda8833ae539a4c3c5854789c776abd5bddc41",
    "wk": "86d02efb79ceff07a0830059a05bd1ce6ba70c9f2fc44dd400c8055b6c40fef0",
    "varint-delta": (
        "47444306da064992768dab4ef79c84bb68634f54a3c8e32d6e65223d95693d21"
    ),
    "fpc": "66c18b3f9ba7a11ad092a790dd00a323359420edd27d2feef685924ac7d82c93",
    "bdi": "7d6510002a98bbc2fda7dd7fbf72d7a0bba4a14420e8aa87363fdc8960341b8a",
    "cpack": (
        "e6207bf6d87c3dadb464d8ec490145ef72154491f364065f98f9a5d8b5179332"
    ),
}


def boundary_corpus() -> List[bytes]:
    """The LZ kernels' corpus, then pages on RLE run-chunk boundaries
    (130/260 straddles) and word-segment boundaries for the delta codec
    (descending, large-gap ascending)."""
    return golden_corpus() + [
        b"a" * 131,
        b"a" * 132,
        b"a" * 133,
        b"a" * 260 + b"xy",
        b"ab" * 2048,
        b"".join((4096 - i).to_bytes(4, "little") for i in range(1024)),
        b"".join((i * 200).to_bytes(4, "little") for i in range(1024)),
    ]


def assert_one_encoding(page: bytes, wrap=bytes) -> None:
    """Every word kernel's compiled encoder encodes ``page`` (passed as
    ``wrap(page)``) as its reference loop does, and the reference
    decoder reads what would be stored."""
    n = len(page)
    for name in WORD_KERNELS:
        loop = reference(name)
        want = loop._encode(page, n)
        assert create(name)._encode(wrap(page), n) == want, (name, n)
        if want is not None and len(want) < n:
            assert loop._decode(want, n) == page, (name, n)


def test_the_library_loads_where_a_compiler_works():
    for name in WORD_KERNELS:
        assert create(name)._library is LIBRARY
        assert reference(name)._library is not LIBRARY


@pytest.mark.parametrize("variant", WORD_KERNELS)
def test_fast_bit_identical_to_scalar(variant):
    fast, scalar = create(variant), reference(variant)
    digest = hashlib.sha256()
    for page in boundary_corpus():
        got = fast.compress(page)
        want = scalar.compress(page)
        assert got.payload == want.payload, (
            f"{variant}: fast payload diverges on a {len(page)}-byte page"
        )
        assert got.stored_raw == want.stored_raw
        assert got.original_size == want.original_size == len(page)
        assert scalar.decompress(got) == page
        digest.update(want.payload)
        digest.update(b"\x00" if want.stored_raw else b"\x01")
    assert digest.hexdigest() == GOLDEN_DIGESTS[variant], (
        f"{variant}: corpus digest changed — the stored format moved"
    )


def test_fast_flag_resolution():
    """There is no flag to resolve: a kernel takes no ``fast`` argument,
    and each word kernel runs the compiled library, which holds the
    kernel's encoder (and decoder, where it has one)."""
    for name in WORD_KERNELS:
        assert create(name).uses_library, name
        with pytest.raises(TypeError):
            create(name, fast=False)
        assert create(name)._library is LIBRARY, name
        encoder = "delta_encode" if name == "varint-delta" else (
            f"{name}_encode")
        assert callable(getattr(LIBRARY, encoder)), name
        if name in DECODERS:
            assert callable(getattr(LIBRARY, DECODERS[name])), name


def test_mixed_mode_shared_results_are_safe():
    """Compiled and reference instances share one result-cache identity."""
    for name in WORD_KERNELS:
        key = create(name).result_cache_key()
        assert key is not None
        assert key == reference(name).result_cache_key()


# --------------------------------------------------------------------------
# fpc / bdi / cpack / wk under structured boundary input.


def reference_cpack(data: bytes) -> bytes:
    """C-Pack's stream as the replaced encoder wrote it: a 16-entry scan
    per word, one ``_BitWriter.write`` per code, index and raw field."""
    nwords = len(data) // 4
    stream = _BitWriter()
    write = stream.write
    dictionary = [0] * 16
    fill = 0
    for (word,) in struct.iter_unpack("<I", data[: nwords * 4]):
        if word == 0:
            write(0b00, 2)
            continue
        if word & 0xFFFFFF00 == 0:
            write(0b11, 2)
            write(0b01, 2)
            write(word, 8)
            continue
        best_pos = best_bytes = 0
        for pos, entry in enumerate(dictionary):
            if entry == word:
                best_pos, best_bytes = pos, 4
                break
            if best_bytes < 3 and entry ^ word < 0x100:
                best_pos, best_bytes = pos, 3
            elif best_bytes < 2 and entry ^ word < 0x10000:
                best_pos, best_bytes = pos, 2
        if best_bytes == 4:
            write(0b10, 2)
            write(best_pos, 4)
            continue
        if best_bytes == 3:
            write(0b11, 2)
            write(0b10, 2)
            write(best_pos, 4)
            write(word, 8)
        elif best_bytes == 2:
            write(0b11, 2)
            write(0b00, 2)
            write(best_pos, 4)
            write(word, 16)
        else:
            write(0b01, 2)
            write(word, 32)
        dictionary[fill] = word
        fill = (fill + 1) % 16
    return struct.pack("<I", nwords) + stream.flush() + data[nwords * 4 :]


def _words(*values: int) -> bytes:
    return struct.pack(f"<{len(values)}I", *(v & 0xFFFFFFFF for v in values))


def _bdi_edge_line(args) -> bytes:
    """One 64-byte line of ``k``-byte values whose distances from the
    first sit on the ``d``-byte delta boundary, wrapping modulo the
    ``k``-byte range (a wrapped distance must not pass for a near one)."""
    (_enc, k, d), base, picks = args
    half = 1 << (8 * d - 1)
    edges = (0, 1, -1, half - 1, half, -half, -half - 1)
    values = [base] + [base + edges[p] for p in picks[: 64 // k - 1]]
    return b"".join((v % (1 << 8 * k)).to_bytes(k, "little") for v in values)


def _wk_slot_mates(high: int) -> bytes:
    """Two 22-bit prefixes sharing a WK dictionary slot, alternating:
    each evicts the other, so a re-seen word is a miss, not an exact
    match — with a zero word (which must not touch the slot) between."""
    mate = (high + 1) & 0x3FFFFF
    while _dict_slot(mate << 10) != _dict_slot(high << 10):
        mate = (mate + 1) & 0x3FFFFF
    a, b = high << 10 | 1, mate << 10 | 2
    return _words(a, b, a, 0, a, b | 5, b, b | 5, a)


_word = st.integers(0, 0xFFFFFFFF)

#: Named boundary segments; a page is a concatenation of draws.
SEGMENTS = {
    # FPC: a run is cut into tokens of at most 8 zero words.
    "fpc-zero-run": st.sampled_from([1, 7, 8, 9, 16, 17]).map(
        lambda n: bytes(4 * n)
    ),
    "fpc-sign-edge": st.sampled_from(
        [7, 8, -8, -9, 127, 128, -128, -129, 32767, 32768, -32768, -32769]
    ).map(_words),
    "fpc-two-halves": st.sampled_from(
        [0xFF80FF85, 0x007F007F, 0x007FFF80, 0x0080007F, 0xFF7FFF80]
    ).map(_words),
    "fpc-high-half": st.integers(1, 0xFFFF).map(lambda h: _words(h << 16)),
    "fpc-repeated-byte": st.integers(0, 255).map(lambda b: bytes([b]) * 4),
    # BDI: deltas at +-half and one past it for every (k, d).
    "bdi-delta-edge": st.tuples(
        st.sampled_from(_DELTA_ENCODINGS),
        st.integers(0, 2**64 - 1),
        st.lists(st.integers(0, 6), min_size=31, max_size=31),
    ).map(_bdi_edge_line),
    # Base-8 values further apart than 2**63: the wrapped difference is
    # small, the true one is not.
    "bdi-far-base8": st.lists(
        st.sampled_from([0, 1, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1]),
        min_size=8, max_size=8,
    ).map(lambda vs: b"".join(v.to_bytes(8, "little") for v in vs)),
    # A repeat-8 line also fits base-8/delta-1; repeat-8 comes first.
    "bdi-repeat8": st.integers(0, 2**64 - 1).map(
        lambda v: v.to_bytes(8, "little") * 8
    ),
    # C-Pack: a zero high half partially matches the initial all-zero
    # dictionary.
    "cpack-zero-high-half": st.integers(0x100, 0xFFFF).map(_words),
    # A 2-byte partner pushed before a 3-byte partner: the later,
    # longer match must win.
    "cpack-3-after-2": _word.map(
        lambda w: _words(w ^ 0x1200, w ^ 0x34, w, w ^ 0x56)
    ),
    # More than 16 pushes wrap the FIFO; the first word, replaced, is a
    # miss again when re-seen.
    "cpack-fifo-wrap": st.tuples(_word, st.integers(16, 20)).map(
        lambda t: _words(
            t[0], *(t[0] + (i << 16) for i in range(1, t[1] + 1)), t[0]
        )
    ),
    "cpack-reseen": _word.map(lambda w: _words(w, w ^ 0xABCD0000, w, w ^ 1)),
    # WK: a non-zero word under 1024 partially matches the empty
    # dictionary's 0; same-prefix words chain partial matches, each
    # against the one before, with exact repeats between.
    "wk-low-word": st.integers(1, 1023).map(_words),
    "wk-partial-chain": st.tuples(
        st.integers(0, 0x3FFFFF),
        st.lists(st.sampled_from([0, 1, 1, 2, 1023]), min_size=2,
                 max_size=8),
    ).map(lambda t: _words(*(t[0] << 10 | low for low in t[1]))),
    "wk-slot-mates": st.integers(0, 0x3FFFFF).map(_wk_slot_mates),
    "random": st.binary(min_size=1, max_size=64),
}


@st.composite
def structured_pages(draw) -> bytes:
    """0-4,099 bytes of boundary segments, any 0-3 byte tail included."""
    unit = b"".join(
        draw(st.lists(st.one_of(*SEGMENTS.values()), max_size=24))
    )
    repeat = draw(st.integers(1, 64))
    size = draw(st.integers(0, 4099))
    return (unit * repeat)[:size]


@settings(max_examples=300, deadline=None)
@given(page=structured_pages())
# A zero run of 17 ending the page; a base-4 line whose second value is
# 2**32 - 1 from the base (wraps to -1).
@example(page=_words(5) + bytes(4 * 17))
@example(page=_words(0, 0xFFFFFFFF) * 8)
def test_structured_boundaries_bit_identical(page):
    oracles = {
        "wk": reference("wk").compress(page).payload,
        "fpc": reference("fpc").compress(page).payload,
        "bdi": reference("bdi").compress(page).payload,
        "cpack": reference_cpack(page),
    }
    for name, want in oracles.items():
        scalar = reference(name)
        for kernel in (create(name), scalar):
            got = kernel.compress(page)
            assert got.original_size == len(page)
            if got.stored_raw:
                assert got.payload == page and len(want) >= len(page), name
            else:
                assert got.payload == want, name
            assert scalar.decompress(got) == page


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
    want = decoded(reference(name)._decode, payload, size)
    compiled = getattr(LIBRARY, DECODERS[name])
    assert decoded(compiled, payload, size) == want
    assert decoded(compiled, bytearray(payload), size) == want
    return want


@settings(max_examples=300, deadline=None)
@given(payload=st.binary(max_size=600), size=st.integers(0, 6000),
       name=st.sampled_from(sorted(DECODERS)))
def test_the_decoders_agree_on_any_bytes(name, payload, size):
    assert_one_decoder(name, payload, size)


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
