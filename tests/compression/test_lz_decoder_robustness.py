"""Foreign bytes into the kernel decoders (ROADMAP robustness item c,
kernel slice).

A stored payload is bytes the decoder did not write by the time it reads
them back (the log store, the service's tiers, the wire, a warm tier's
payload that a demotion decodes to recompress one level colder), so what
a decoder accepts matters beyond the one call.  Valid payloads of every tagged
kernel are mutated, truncated, extended and mis-sized here and sent in
the way the system sends them: tag byte first, through
``AdaptiveCompressor.decompress``.  The contract is *exactly
``original_size`` bytes, or ``CorruptDataError``* — never another
exception.  ``lzrw1`` and ``lzss`` payloads share one item stream and
one decoder, ``lzrw1.decode_items``, which in addition never decodes
more than one item (18 bytes) past ``original_size`` before it gives up.
It has a compiled twin (``lz_decode`` in ``_kernels.c``), which every
mutation here also goes through: the two return the same bytes or raise
the same message.  So do ``rle``'s and ``cpack``'s decoders, the word
kernels' that the benchmark workloads store, and neither writes past
``original_size``.
"""

from __future__ import annotations

import random
import re
import tracemalloc

import pytest

from repro.compression import create
from repro.compression.adaptive import KERNEL_TAGS, AdaptiveCompressor
from repro.compression.base import CompressionResult, CorruptDataError
from repro.compression.compiled import compiled_library
from repro.compression.lzrw1 import decode_items
from repro.workloads import contentgen

LZ_KERNELS = ("lzrw1", "lzss")
WORD_KERNELS = ("rle", "wk", "varint-delta", "bdi", "fpc", "cpack")
MUTATIONS_PER_PAGE = 1000


def _tags(name: str):
    """The tags ``name``'s stream decodes under: the LZ pair's stream is
    common property, every other kernel's is its own."""
    names = LZ_KERNELS if name in LZ_KERNELS else (name,)
    return [KERNEL_TAGS[other] for other in names]


def _pages():
    dictionary = contentgen.make_dictionary()
    return [
        contentgen.text_page_random(1, dictionary),
        contentgen.text_page_clustered(2, dictionary),
        contentgen.cache_table_page(3),
        contentgen.repeating_pattern(4),
        bytes(4096),
        (b"abcabcabc!" * 60)[:517],
        contentgen.dp_band_values(5),
        contentgen.index_page(6),
    ]


def _mutate(rng: random.Random, tagged: bytes, size: int, tags):
    """One damaged ``(payload, original_size)``; the tag byte stays one
    of ``tags`` (an undamaged stream under the wrong decoder is not the
    subject)."""
    body = bytearray(tagged[1:])
    kind = rng.randrange(6)
    if kind == 0:                       # overwrite a few bytes
        for _ in range(rng.randrange(1, 5)):
            body[rng.randrange(len(body))] = rng.randrange(256)
    elif kind == 1:                     # truncate
        del body[rng.randrange(len(body)):]
    elif kind == 2:                     # extend
        body += bytes(rng.choices(range(256), k=rng.randrange(1, 64)))
    elif kind == 3:                     # drop a slice from the middle
        start = rng.randrange(len(body))
        del body[start:start + rng.randrange(1, 32)]
    elif kind == 4:                     # insert a slice in the middle
        start = rng.randrange(len(body))
        body[start:start] = bytes(
            rng.choices(range(256), k=rng.randrange(1, 32)))
    else:                               # lie about the size
        size = max(0, size + rng.choice((-1, 1)) * rng.randrange(1, 40))
    return bytes([rng.choice(tags)]) + bytes(body), size


def _rejected(adaptive, payload: bytes, size: int) -> bool:
    """Whether the decoder refused the payload; what it accepts must
    come out exactly ``size`` bytes long."""
    try:
        out = adaptive.decompress(CompressionResult(payload, size))
    except CorruptDataError:
        return True
    assert len(out) == size
    return False


@pytest.mark.parametrize("name", LZ_KERNELS + WORD_KERNELS)
def test_damaged_payloads_decode_to_size_or_corrupt(name):
    rng = random.Random(f"robust-{name}")
    adaptive = AdaptiveCompressor()
    kernel = create(name)
    tags = _tags(name)
    rejected = damaged_pages = 0
    for page in _pages():
        result = kernel.compress(page)
        if result.stored_raw:
            continue  # nothing of this kernel's to decode
        damaged_pages += 1
        tagged = bytes([KERNEL_TAGS[name]]) + result.payload
        for tag in tags:
            assert adaptive.decompress(CompressionResult(
                bytes([tag]) + result.payload, len(page))) == page
        for _ in range(MUTATIONS_PER_PAGE):
            rejected += _rejected(
                adaptive, *_mutate(rng, tagged, len(page), tags))
    # Every kernel compresses at least three of the pages (the LZ pair
    # all eight), and most damage is detected (what is not decodes to
    # the right length).
    assert damaged_pages >= (8 if name in LZ_KERNELS else 3)
    assert rejected > MUTATIONS_PER_PAGE


def _decoded(decode, payload: bytes, size: int, name: str):
    try:
        return decode(payload, size, name)
    except CorruptDataError as error:
        return f"CorruptDataError: {error}"


@pytest.mark.skipif(compiled_library() is None,
                    reason="the compiled library did not load")
@pytest.mark.parametrize("name", LZ_KERNELS)
def test_both_lz_decoders_agree_on_damaged_payloads(name):
    compiled = compiled_library().lz_decode
    rng = random.Random(f"twins-{name}")
    kernel = create(name)
    tags = _tags(name)
    outcomes = set()
    for page in _pages():
        tagged = bytes([KERNEL_TAGS[name]]) + kernel.compress(page).payload
        for _ in range(MUTATIONS_PER_PAGE):
            payload, size = _mutate(rng, tagged, len(page), tags)
            want = _decoded(decode_items, payload[1:], size, name)
            assert _decoded(compiled, payload[1:], size, name) == want
            outcomes.add(re.sub(r"\d+", "N", want)
                         if type(want) is str else "bytes")
    # Every error the decoder raises, and decoded bytes, came up.
    assert len(outcomes) == 4, outcomes


#: The word kernels with a compiled decoder, and what it returns.
COMPILED_DECODERS = {"rle": "rle_decode", "cpack": "cpack_decode"}


@pytest.mark.skipif(compiled_library() is None,
                    reason="the compiled library did not load")
@pytest.mark.parametrize("name", sorted(COMPILED_DECODERS))
def test_compiled_word_decoders_agree_on_damaged_payloads(name):
    compiled = getattr(compiled_library(), COMPILED_DECODERS[name])
    python = create(name, fast=False)._decode
    rng = random.Random(f"twins-{name}")
    kernel = create(name)
    outcomes = set()
    for page in _pages():
        result = kernel.compress(page)
        if result.stored_raw:
            continue
        tagged = bytes([KERNEL_TAGS[name]]) + result.payload
        for _ in range(MUTATIONS_PER_PAGE):
            payload, size = _mutate(rng, tagged, len(page), _tags(name))
            want = _decoded(lambda p, n, _: python(p, n), payload[1:],
                            size, name)
            got = _decoded(lambda p, n, _: compiled(p, n), payload[1:],
                           size, name)
            assert got == want
            outcomes.add(want if type(want) is str else "bytes")
    # Decoded bytes and most of the decoder's errors came up.
    assert "bytes" in outcomes and len(outcomes) >= 3, outcomes


def test_unknown_tag_and_empty_payload_are_corrupt():
    adaptive = AdaptiveCompressor()
    for payload in (b"", bytes([max(KERNEL_TAGS.values()) + 1, 0, 0])):
        with pytest.raises(CorruptDataError):
            adaptive.decompress(CompressionResult(payload, 4096))


def test_decoder_never_runs_far_past_the_size():
    """Worst cases by construction — a group of maximal self-overlapping
    LZ copies with ``original_size`` one byte short of the first, and
    ``rle`` runs of 130 bytes for 2 — and 60 random mutations of an
    ``lzss``, an ``rle`` and a ``cpack`` payload, through the compiled
    decoders and the Python ones: beyond the adaptive layer's one copy
    of the payload (it strips the tag) and the raised exception, peak
    allocation stays within a small multiple of ``original_size + 18``."""
    copy = bytes([0xF0, 0x01])          # length 18, offset 1
    runaway = bytes([KERNEL_TAGS["lzss"]]) + (
        b"\x00\x00" + b"A" * 16 + (b"\xff\xff" + copy * 16) * 400)
    runs = bytes([KERNEL_TAGS["rle"]]) + b"\xff\x00" * 2048
    rng = random.Random("overshoot")
    page = _pages()[0]
    cases = [(runaway, 16 + 17), (runaway, 4096), (runs, 4096), (runs, 1)]
    for name in ("lzss", "rle", "cpack"):
        tagged = (bytes([KERNEL_TAGS[name]])
                  + create(name).compress(page).payload)
        cases += [_mutate(rng, tagged, len(page), _tags(name))
                  for _ in range(60)]
    tracemalloc.start()
    try:
        for adaptive in (AdaptiveCompressor(),
                         AdaptiveCompressor(fast=False)):
            for payload, size in cases:
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                _rejected(adaptive, payload, size)
                peak = tracemalloc.get_traced_memory()[1] - before
                budget = len(payload) + 4 * (size + 18) + 4096
                assert peak <= budget, (payload[0], size, peak)
    finally:
        tracemalloc.stop()
