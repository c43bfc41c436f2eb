"""Golden-output tests: the vectorized kernels equal the scalar kernels.

The ``fast=`` numpy paths in :mod:`repro.compression.vectorized` are
*pure* speed work — every compressed payload must be byte-identical to
the scalar encoder's, or the golden RunResult digests and the shared
kernel-result cache (which assumes one canonical payload per page) break
silently.  Same two-layer protection as ``test_golden_kernels.py``:

* every page in a deterministic corpus spanning all content kinds
  (including pathological/incompressible pages and run/segment boundary
  cases) is compressed by both paths and the payloads diffed directly;
* an aggregate SHA-256 over all scalar payloads is pinned, so a
  coordinated edit of both paths is caught.

* fpc, bdi and cpack additionally face a Hypothesis strategy built from
  named boundary segments (zero-run lengths around the 8-word token,
  sign-extension edges, delta-width edges that wrap, FIFO wrap-around).
  C-Pack has one encoder loop whose bit stream goes through the numpy
  packer or ``_BitWriter``; its oracle is the 16-entry scan it replaced,
  kept below as ``reference_cpack``.

The word kernels' default path is the compiled library where it loads
(``test_word_kernels_compiled.py`` holds it to the loops); the numpy
twins run only where it does not.  So that they are still diffed here,
the ``fast=True`` side of every pair drops the library
(:func:`numpy_twin`).  Without numpy the ``fast=True`` constructors
then silently fall back to the scalar loop, so these tests still pass —
they then assert scalar == scalar (for cpack: the one loop through
``_BitWriter`` against the reference scan), and
``test_fast_flag_resolution`` checks the fallback wiring.
"""

from __future__ import annotations

import hashlib
import random
import struct
from typing import List

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.compression import vectorized
from repro.compression.bdi import _DELTA_ENCODINGS, BdiCompressor
from repro.compression.cpack import CpackCompressor
from repro.compression.delta import VarintDeltaCompressor
from repro.compression.fpc import FpcCompressor
from repro.compression.lzrw1 import Lzrw1
from repro.compression.lzss import Lzss
from repro.compression.rle import Rle
from repro.compression.wk import WkCompressor, _BitWriter, _dict_slot
from repro.workloads import contentgen

#: Aggregate SHA-256 of (payload + raw-flag byte) over the whole corpus,
#: computed from the scalar kernels.  Pinned: a change here is a breaking
#: format change, not a refactor.
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


def golden_corpus() -> List[bytes]:
    """Deterministic pages spanning every content kind plus edge cases."""
    pages: List[bytes] = []
    dictionary = contentgen.make_dictionary()
    for page_number in range(4):
        pages += [
            contentgen.repeating_pattern(page_number),
            contentgen.incompressible(page_number),
            contentgen.dp_band_values(page_number),
            contentgen.index_page(page_number),
            contentgen.cache_table_page(page_number),
            contentgen.text_page_random(page_number, dictionary),
            contentgen.text_page_clustered(page_number, dictionary),
        ]
    rng = random.Random(0xC0FFEE)
    pages += [
        bytes(4096),
        b"\xff" * 4096,
        (b"the quick brown fox jumps over the lazy dog " * 100)[:4096],
        bytes(rng.randrange(256) for _ in range(4096)),
        (bytes(rng.randrange(256) for _ in range(512)) * 8)[:4096],
        b"".join((i & 0xFFFF).to_bytes(4, "little") for i in range(1024)),
    ]
    # Short inputs around the raw-fallback and chunk-flush boundaries.
    for n in (0, 1, 2, 3, 4, 5, 15, 16, 17, 31, 33, 255, 257, 1000):
        pages.append((b"abcabcabc!" * 110)[:n])
    # RLE run-chunk boundaries (130/260 straddles) and word-segment
    # boundaries for the delta codec (descending, large-gap ascending).
    pages += [
        b"a" * 131,
        b"a" * 132,
        b"a" * 133,
        b"a" * 260 + b"xy",
        b"ab" * 2048,
        b"".join((4096 - i).to_bytes(4, "little") for i in range(1024)),
        b"".join((i * 200).to_bytes(4, "little") for i in range(1024)),
    ]
    return pages


def numpy_twin(kernel_type):
    """A ``fast=True`` kernel that runs its numpy twin (its loop
    without numpy), not the compiled library."""
    def factory():
        kernel = kernel_type(fast=True)
        kernel._library = None
        assert kernel._use_fast is vectorized.HAVE_NUMPY
        return kernel
    return factory


PAIRS = {
    "rle": (numpy_twin(Rle), lambda: Rle(fast=False)),
    "wk": (numpy_twin(WkCompressor), lambda: WkCompressor(fast=False)),
    "varint-delta": (
        numpy_twin(VarintDeltaCompressor),
        lambda: VarintDeltaCompressor(fast=False),
    ),
    "fpc": (numpy_twin(FpcCompressor), lambda: FpcCompressor(fast=False)),
    "bdi": (numpy_twin(BdiCompressor), lambda: BdiCompressor(fast=False)),
    "cpack": (
        numpy_twin(CpackCompressor),
        lambda: CpackCompressor(fast=False),
    ),
}


@pytest.mark.parametrize("variant", sorted(PAIRS))
def test_fast_bit_identical_to_scalar(variant):
    fast_factory, scalar_factory = PAIRS[variant]
    fast, scalar = fast_factory(), scalar_factory()
    digest = hashlib.sha256()
    for page in golden_corpus():
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


@pytest.mark.parametrize(
    "factory",
    [lambda: Lzrw1(fast=False), lambda: Lzss(fast=False)],
    ids=["lzrw1", "lzss"],
)
def test_scalar_hash_path_matches_default(factory):
    """fast=False (pure scalar hashing) emits the default kernel's bytes."""
    scalar, default = factory(), type(factory())()
    for page in golden_corpus():
        got = scalar.compress(page)
        want = default.compress(page)
        assert got.payload == want.payload
        assert got.stored_raw == want.stored_raw


def test_fast_flag_resolution():
    """``fast=False`` always forces scalar; otherwise numpy decides."""
    assert vectorized.enabled(False) is False
    assert vectorized.enabled(True) is vectorized.HAVE_NUMPY
    assert vectorized.enabled(None) is vectorized.HAVE_NUMPY
    assert Rle(fast=False)._use_fast is False
    assert Rle()._use_fast is vectorized.HAVE_NUMPY
    assert "fast kernels:" in vectorized.capability()


def test_mixed_mode_shared_results_are_safe():
    """Fast and scalar instances share one result-cache identity."""
    for fast_factory, scalar_factory in PAIRS.values():
        fast, scalar = fast_factory(), scalar_factory()
        key = fast.result_cache_key()
        assert key is not None
        assert key == scalar.result_cache_key()


# --------------------------------------------------------------------------
# fpc / bdi / cpack under structured boundary input.


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
        "wk": WkCompressor(fast=False).compress(page).payload,
        "fpc": FpcCompressor(fast=False).compress(page).payload,
        "bdi": BdiCompressor(fast=False).compress(page).payload,
        "cpack": reference_cpack(page),
    }
    for name, want in oracles.items():
        fast_factory, scalar_factory = PAIRS[name]
        scalar = scalar_factory()
        for kernel in (fast_factory(), scalar):
            got = kernel.compress(page)
            assert got.original_size == len(page)
            if got.stored_raw:
                assert got.payload == page and len(want) >= len(page), name
            else:
                assert got.payload == want, name
            assert scalar.decompress(got) == page
