"""Every memo in ``src/`` held to the bytes it retains, not its entry count.

A memo's cap counts entries; what it costs is bytes.  Each case fills one
memo with distinct entries — inputs built before tracing starts,
anything another memo picked up on the way dropped before the count —
and ``tracemalloc`` must find less retained than the values the memo
exists to hold plus :data:`PER_ENTRY` bytes an entry: its key, its node
in the memo and a result object's header.  An entry that also keeps a
copy of a large argument (the text memos' 32-KByte dictionary, before
they were keyed by a token) fails by an order of magnitude.
"""

from __future__ import annotations

import tracemalloc
from typing import Callable, Dict, List, Tuple

import pytest

from repro.compression import create, sampler
from repro.compression.sampler import (
    CompressionSampler,
    clear_shared_results,
    shared_compress,
    shared_decompress,
)
from repro.workloads import contentgen as cg

N = 256
#: Bytes an entry may retain beyond its value.  Measured (Python 3.11):
#: 125-216 for the contentgen memos (193 / 203 for a text page; 33,000
#: while each kept its own copy of the dictionary), 179-563 for the
#: kernel-result memos (a fingerprint key, an ``OrderedDict`` node, a
#: ``CompressionResult``), 231 for the selector's own memo (a
#: fingerprint and a choice) and 323 for its process-wide finished
#: results with their trial outcomes.
PER_ENTRY = 768

#: A case builds its inputs and returns ``fill``, which fills the memo
#: and returns ``(value bytes held, entries)``.
Fill = Callable[[], Tuple[int, int]]


def _retained(fill: Fill) -> Tuple[int, int, int]:
    """``(bytes still allocated after fill(), value bytes, entries)``,
    counting only what ``fill`` allocated."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        values, entries = fill()
        return tracemalloc.get_traced_memory()[0] - before, values, entries
    finally:
        tracemalloc.stop()


def _contentgen_case(generate: Callable[[int], bytes]) -> Callable[[], Fill]:
    """One contentgen memo, ``N`` pages: warmed with one page first, so
    what the memo builds once (a dictionary's canonical copy) is outside
    the count."""
    def case() -> Fill:
        cg.clear_caches()
        generate(N)

        def fill():
            return sum(len(generate(number)) for number in range(N)), N
        return fill
    return case


def _dictionary_case() -> Fill:
    cg.clear_caches()

    def fill():
        held = 0
        for seed in range(16):  # the memo's cap
            words = cg.make_dictionary(512, seed)
            # The tuple's slots and the words (a bytes header is 33).
            held += 8 * len(words) + sum(len(word) + 33 for word in words)
        return held, 16
    return fill


def _kernel_pages() -> List[bytes]:
    """Distinct pages that compress, well and middling."""
    return ([cg.index_page(number) for number in range(N)]
            + [cg.repeating_pattern(number) for number in range(N // 2)])


def _sampler_case() -> Fill:
    sampler = CompressionSampler(create("lzrw1"))
    pages = _kernel_pages()
    sampler.compress(cg.incompressible(0))  # the kernel's scratch

    def fill():
        held = sum(len(sampler.compress(page).payload) for page in pages)
        clear_shared_results()  # each result is also shared: drop that
        return held, len(pages)
    return fill


def _shared_results_case() -> Fill:
    kernel = create("lzrw1")
    pages = _kernel_pages()
    kernel.compress(cg.incompressible(0))

    def fill():
        return sum(len(shared_compress(kernel, page).payload)
                   for page in pages), len(pages)
    return fill


def _shared_decoded_case() -> Fill:
    kernel = create("lzrw1")
    # The payloads key the memo but belong to their results, which the
    # tier caches hold: built here, outside the count.
    results = [kernel.compress(page) for page in _kernel_pages()]

    def fill():
        return sum(len(shared_decompress(kernel, result))
                   for result in results), len(results)
    return fill


def _adaptive_case() -> Fill:
    adaptive = create("adaptive")
    pages = _kernel_pages()
    adaptive.compress(cg.incompressible(0))  # every kernel's scratch
    clear_shared_results()

    def fill():
        for page in pages:
            adaptive.compress(page)
        clear_shared_results()  # the finished results: another memo's
        return 0, len(pages)    # a choice an entry, no payload
    return fill


def _finished_case(budget=None) -> Callable[[], Fill]:
    """The selector's process-wide finished results and trial outcomes,
    the selector's own memos emptied; with ``budget``, a byte budget
    the pages overflow three times over."""
    def case() -> Fill:
        adaptive = create("adaptive")
        pages = _kernel_pages()
        adaptive.compress(cg.incompressible(0))
        clear_shared_results()

        def fill():
            saved = sampler._SHARED_FINISHED_MAX_BYTES
            if budget is not None:
                sampler._SHARED_FINISHED_MAX_BYTES = budget
            try:
                # A raw result's payload is the caller's page, built
                # before the count: only tagged payloads are the memo's.
                held = sum(len(result.payload) for result in map(
                    adaptive.compress, pages) if not result.stored_raw)
            finally:
                sampler._SHARED_FINISHED_MAX_BYTES = saved
            adaptive._results.clear()
            adaptive._memo.clear()
            if budget is not None:
                assert held > 3 * budget
                assert sampler._shared_finished_bytes <= budget
                held = budget
            return held, len(pages)
        return fill
    return case


#: A list, as tests and examples pass it: resolved by content.
_DICTIONARY = cg.make_dictionary()

CASES: Dict[str, Callable[[], Fill]] = {
    "contentgen.repeating_pattern": _contentgen_case(cg.repeating_pattern),
    "contentgen.incompressible": _contentgen_case(cg.incompressible),
    "contentgen.dp_band_values": _contentgen_case(cg.dp_band_values),
    "contentgen.dictionary_words": _dictionary_case,
    "contentgen.text_page_random": _contentgen_case(
        lambda number: cg.text_page_random(number, _DICTIONARY)),
    "contentgen.text_page_clustered": _contentgen_case(
        lambda number: cg.text_page_clustered(number, _DICTIONARY)),
    "contentgen.index_page": _contentgen_case(cg.index_page),
    "contentgen.cache_table_page": _contentgen_case(cg.cache_table_page),
    "sampler.CompressionSampler": _sampler_case,
    "sampler._SHARED_RESULTS": _shared_results_case,
    "sampler._SHARED_DECODED": _shared_decoded_case,
    "adaptive.AdaptiveCompressor._results": _adaptive_case,
    "sampler._SHARED_FINISHED": _finished_case(),
    "sampler._SHARED_FINISHED at its budget": _finished_case(64 * 1024),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_memo_retains_its_values_plus_a_constant(name):
    clear_shared_results()
    try:
        retained, values, entries = _retained(CASES[name]())
    finally:
        cg.clear_caches()
        clear_shared_results()
    assert retained < values + entries * PER_ENTRY, (
        f"{name}: {retained:,} bytes retained by {entries} entries "
        f"holding {values:,} ({(retained - values) / entries:,.0f} an "
        f"entry beyond its value)")
