"""The selector's raw proofs: sound, path-independent, and exact.

:func:`repro.compression.adaptive.raw_proofs` names the candidate
kernels that store a page raw without running them, and the selector's
trial skips those.  Three things must hold, and each is checked here on
the ``contentgen`` corpus, mixtures of its kinds, tiled random blocks
(high byte entropy, yet LZ halves them), the ``kv-mixed`` PUT payloads
of seeds 1-3, pages built to sit just past each bound, and a Hypothesis
strategy:

* *soundness* — every kernel a proof names really stores the page raw;
* *one decision* — the numpy histogram and distinct counts decide what
  the scalar ones do;
* *exact elections* — a selector that skips the proven kernels returns
  the payloads and counters of one that runs every candidate.

The dominance that took ``lzrw1`` out of the default candidates (lzss
never stores a page in more bytes) is held on the corpus and a seeded
fuzz set.
"""

from __future__ import annotations

import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.compression import adaptive, create, vectorized
from repro.compression.adaptive import (
    DEFAULT_CANDIDATES,
    AdaptiveCompressor,
    raw_proofs,
)
from repro.compression.sampler import clear_shared_results
from repro.perf import _corpus_kinds
from repro.workloads.traffic import (
    PUT,
    TenantTraffic,
    TrafficSpec,
    generate_ops,
)

PAGE = 4096
#: Every kernel a proof covers: the default candidates and lzrw1.
PROVABLE = tuple(DEFAULT_CANDIDATES) + ("lzrw1",)
KERNELS = {name: create(name) for name in PROVABLE}
NUMPY = vectorized._np


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
    """Random pages with one structure planted: each is just compressible
    by the kernel whose bound it targets, so a loose proof fails here."""
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
    # Thirteen back-to-back copies of a 40-byte block: lzss stores the
    # page in 4,088 bytes, just under raw.
    block = rng.randbytes(40)
    pages.append(planted(2000, block + rng.randbytes(100) + block * 13))
    # One ascending chunk whose gaps need 4 varint bytes but for four
    # small items: the chunk header alone cannot pay for them.
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


def assert_sound(page: bytes) -> frozenset:
    proven = raw_proofs(page, None)
    if NUMPY is not None:
        assert raw_proofs(page, NUMPY) == proven
    for name in proven:
        assert KERNELS[name].compress(page).stored_raw, (name, len(page))
    return proven


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
def test_every_proven_kernel_stores_the_page_raw(source):
    for page in SOURCES[source]():
        assert_sound(page)


def test_random_pages_are_hopeless_and_structure_is_not():
    """What the proofs are for: a random page goes raw untried; tiled
    random blocks and the near-bound pages each keep a kernel to try."""
    assert assert_sound(random.Random(5).randbytes(PAGE)) == frozenset(
        PROVABLE)
    for page in tiled_random_blocks() + near_bounds():
        assert assert_sound(page) != frozenset(PROVABLE)


def test_short_pages_get_the_full_trial():
    assert raw_proofs(random.Random(1).randbytes(511), None) == frozenset()


@st.composite
def pages(draw) -> bytes:
    """Segments of random bytes, runs, zero or small words, ascending
    words and repeated blocks, at sizes around and above the minimum."""
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
@given(page=pages())
def test_proofs_hold_on_generated_pages(page):
    assert_sound(page)


@pytest.mark.parametrize("seed", (1, 2))
def test_elections_equal_the_full_trial(seed, monkeypatch):
    """Same payloads and counters with and without the skip, over a page
    stream with repeats (memo hits, re-trials) — the property that keeps
    every golden digest and the ledger digest unmoved."""
    stream = kv_payloads(seed) + corpus()
    random.Random(seed).shuffle(stream)
    stream += stream[: len(stream) // 3]
    clear_shared_results()
    skipping = AdaptiveCompressor()
    got = [skipping.compress(page).payload for page in stream]
    monkeypatch.setattr(adaptive, "raw_proofs",
                        lambda data, np=None: frozenset())
    # Or the full selector would replay the skipping one's outcomes.
    clear_shared_results()
    full = AdaptiveCompressor()
    want = [full.compress(page).payload for page in stream]
    assert got == want
    assert skipping.selection_snapshot() == full.selection_snapshot()


def test_a_hopeless_page_runs_no_kernel(monkeypatch):
    """A page every candidate is proven to store raw returns what the
    full trial returns on an all-raw page — the first candidate's index,
    a raw result, one threshold miss — and compresses nothing."""
    page = random.Random(9).randbytes(PAGE)

    def no_kernel(*args):
        raise AssertionError("a proven-raw candidate ran")

    clear_shared_results()
    kernel = AdaptiveCompressor()
    for candidate in kernel._kernels:
        monkeypatch.setattr(candidate, "compress", no_kernel)
    result = kernel.compress(page)
    assert result.stored_raw and result.payload == page
    snapshot = kernel.selection_snapshot()
    assert (snapshot["trials"], snapshot["threshold_misses"],
            snapshot["raw_fallbacks"]) == (1, 1, 1)
    assert list(kernel._memo.values()) == [[0, 0]]


def fuzz_pages() -> list:
    rng = random.Random(2024)
    out = []
    for _ in range(60):
        alphabet = rng.choice((2, 4, 16, 256))
        pool = [bytes(rng.choices(range(alphabet), k=rng.randrange(3, 64)))
                for _ in range(rng.randrange(1, 6))]
        page = bytearray()
        while len(page) < PAGE:
            page += (rng.choice(pool) if rng.random() < 0.5 else
                     bytes(rng.choices(range(alphabet),
                                       k=rng.randrange(1, 300))))
        out.append(bytes(page[:PAGE]))
    return out


@pytest.mark.parametrize("source", ("corpus", "fuzz"))
def test_lzss_never_stores_a_page_in_more_bytes_than_lzrw1(source):
    pages = corpus() if source == "corpus" else fuzz_pages()
    lzss, lzrw1 = create("lzss"), create("lzrw1")
    for page in pages:
        assert (lzss.compress(page).compressed_size
                <= lzrw1.compress(page).compressed_size)
