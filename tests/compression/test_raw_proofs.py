"""Named for the selector's deleted raw-proof screen: the trial that
replaced it runs every candidate, and must elect what it elected.

The screen skipped the candidates that provably store a page raw while
the word kernels ran in Python; compiled, the six of them cost less than
the screen (docs/kernels.md, "Every candidate is tried").  Held here:

* *soundness* — what proof of a raw page is left lives in each
  candidate: its encoder gives up (``_encode`` returns ``None``) as soon
  as it knows it cannot beat the page.  Every candidate that gives up,
  or whose encoding is no smaller, stores the page raw, byte for byte,
  and its Python path (``fast=False``) reaches the same verdict; every
  other result is smaller and decodes to the page.  Checked on the page
  sources the screen's proofs were checked on;
* *exact elections* — a selector whose word kernels run the compiled
  library returns the payloads and counters of one whose word kernels
  run their Python paths, over a page stream with repeats;
* the dominance that took ``lzrw1`` out of the default candidates
  (lzss never stores a page in more bytes), on the corpus and a seeded
  fuzz set.

The same page sources hold the compiled encoders to their loops
(``test_word_kernels_compiled.py``).
"""

from __future__ import annotations

import random

import pytest

from repro.compression import create
from repro.compression.adaptive import DEFAULT_CANDIDATES, AdaptiveCompressor
from repro.compression.sampler import clear_shared_results
from tests.compression.test_word_kernels_compiled import (
    SOURCES,
    corpus,
    kv_payloads,
)

PAGE = 4096


@pytest.mark.parametrize("source", sorted(SOURCES))
def test_every_proven_kernel_stores_the_page_raw(source):
    kernels = [(create(name), create(name, fast=False))
               for name in DEFAULT_CANDIDATES]
    for page in SOURCES[source]():
        n = len(page)
        for kernel, python in kernels:
            out = kernel._encode(page, n)
            result = kernel.compress(page)
            if out is None or len(out) >= n:
                assert result.stored_raw and result.payload == page, (
                    kernel.name, n)
                slow = python._encode(page, n)
                assert slow is None or len(slow) >= n, (kernel.name, n)
            else:
                assert not result.stored_raw, (kernel.name, n)
                assert result.compressed_size < n, (kernel.name, n)
                assert kernel.decompress(result) == page, (kernel.name, n)


@pytest.mark.parametrize("seed", (1, 2))
def test_elections_equal_the_full_trial(seed):
    """Same payloads and counters whichever path the word kernels take,
    over a page stream with repeats (memo hits, re-trials) — the
    property that keeps every golden digest and the ledger digest
    unmoved."""
    stream = kv_payloads(seed) + corpus()
    random.Random(seed).shuffle(stream)
    stream += stream[: len(stream) // 3]
    clear_shared_results()
    compiled = AdaptiveCompressor()
    got = [compiled.compress(page).payload for page in stream]
    python = AdaptiveCompressor()
    for kernel in python._kernels:
        if kernel.name != "lzss":   # the seed's is test_lz_compiled's
            kernel._library = None
    # Or the Python selector would replay the compiled one's outcomes.
    clear_shared_results()
    want = [python.compress(page).payload for page in stream]
    assert got == want
    assert compiled.selection_snapshot() == python.selection_snapshot()


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
