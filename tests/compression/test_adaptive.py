"""Unit tests for the adaptive per-page kernel selector."""

from __future__ import annotations

import hashlib
import struct

import pytest

from repro.compression import (
    CompressionResult,
    CorruptDataError,
    available,
    create,
)
from repro.compression.adaptive import (
    DEFAULT_CANDIDATES,
    KERNEL_TAGS,
    AdaptiveCompressor,
    page_kind,
)
from repro.compression.sampler import (
    CompressionSampler,
    clear_shared_results,
)

PAGE = 4096


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


def mixed_pages() -> list:
    """One page per content class plus edge cases."""
    dictionary = b"the quick brown fox jumps over the lazy dog "
    return [
        bytes(PAGE),
        b"\x05\x00\x00\x00\x06\x00\x00\x00" * (PAGE // 8),
        struct.pack(f"<{PAGE // 4}I",
                    *[(0x40000000 + i * 3) & 0xFFFFFFFF
                      for i in range(PAGE // 4)]),
        (dictionary * (PAGE // len(dictionary) + 1))[:PAGE],
        random_page(9),
        b"",
        b"xy",
    ]


def test_registered_and_no_arg_constructible():
    assert "adaptive" in available()
    kernel = create("adaptive")
    assert isinstance(kernel, AdaptiveCompressor)
    assert kernel.candidate_names == DEFAULT_CANDIDATES


def test_round_trip_mixed_pages():
    kernel = AdaptiveCompressor()
    for data in mixed_pages():
        result = kernel.compress(data)
        assert kernel.decompress(result) == data
        assert result.compressed_size <= max(len(data), 1)


def test_rejects_nested_adaptive_and_unknown_candidates():
    with pytest.raises(ValueError):
        AdaptiveCompressor(candidates=("adaptive",))
    with pytest.raises(ValueError):
        AdaptiveCompressor(candidates=("no-such-kernel",))
    with pytest.raises(ValueError):
        AdaptiveCompressor(candidates=())


def test_opts_out_of_shared_result_cache():
    # The learned memo makes output order-dependent; process-wide
    # sharing between instances would be incorrect.
    assert AdaptiveCompressor().result_cache_key() is None


def test_payloads_are_self_describing_across_instances():
    """Any instance decompresses any other's payload — the demotion
    sink recompression path depends on this."""
    writer = AdaptiveCompressor()
    reader = AdaptiveCompressor(candidates=("rle",))  # disjoint memo
    for data in mixed_pages():
        result = writer.compress(data)
        assert reader.decompress(result) == data


def test_selection_is_deterministic_across_instances():
    """Two fresh instances fed the same page sequence make identical
    choices and produce identical payloads (the digest-pinning
    property), cold or warm shared cache."""
    pages = mixed_pages() * 3
    clear_shared_results()
    first = AdaptiveCompressor()
    results_a = [first.compress(p) for p in pages]
    second = AdaptiveCompressor()  # shared cache now warm
    results_b = [second.compress(p) for p in pages]
    assert [r.payload for r in results_a] == [r.payload for r in results_b]
    assert first.selection_snapshot() == second.selection_snapshot()


def test_picks_smallest_eligible_kernel_per_page():
    """On each trial page the tagged payload is within one tag byte of
    the best candidate kernel's output."""
    kernel = AdaptiveCompressor()
    singles = [create(name) for name in DEFAULT_CANDIDATES]
    for data in mixed_pages():
        if not data:
            continue
        result = kernel.compress(data)
        best = min(s.compress(data).compressed_size for s in singles)
        assert result.compressed_size <= min(best + 1, len(data))


def test_memo_hits_accumulate_and_counters_snapshot():
    kernel = AdaptiveCompressor(resample_every=4)
    page = b"\x07\x00\x00\x00" * (PAGE // 4)
    variants = [page[:-4] + bytes([i, 0, 0, 0]) for i in range(8)]
    for v in variants:
        kernel.compress(v)
    snap = kernel.selection_snapshot()
    assert snap["pages"] == 8
    assert snap["trials"] >= 1
    assert snap["memo_hits"] >= 1
    assert sum(snap["chosen"].values()) + snap["raw_fallbacks"] == 8
    # Identical bytes re-seen replay the finished result.
    kernel.compress(variants[0])
    assert kernel.selection_snapshot()["result_hits"] == 1


def test_both_memos_hold_their_caps_first_in_first_out():
    """More distinct kinds and pages than the caps: each memo stays at
    its cap and drops by age of *insertion* — a hit refreshes nothing."""
    kernel = AdaptiveCompressor(memo_max=3, result_memo_max=4)

    def page(length: int, fill: int = 1) -> bytes:
        return bytes([fill]) * length     # below 128 bytes: one kind a length

    def fingerprints(*pages: bytes) -> list:
        return [CompressionSampler.fingerprint(data) for data in pages]

    lengths = list(range(8, 48, 4))
    for seen, length in enumerate(lengths, 1):
        kernel.compress(page(length))
        assert len(kernel._memo) == min(seen, 3)
        assert len(kernel._results) == min(seen, 4)
    assert kernel.trials == len(lengths)
    assert list(kernel._memo) == [page_kind(page(n)) for n in lengths[-3:]]
    assert list(kernel._results) == fingerprints(
        *[page(n) for n in lengths[-4:]])

    # A hit on the oldest survivor of each memo leaves it the oldest:
    # the next new page pushes out the result just replayed, the next
    # new kind the kind just consulted.
    kernel.compress(page(lengths[-4]))              # same bytes
    kernel.compress(page(lengths[-3], fill=2))      # same kind, new bytes
    assert (kernel.result_hits, kernel.memo_hits) == (1, 1)
    assert list(kernel._results) == fingerprints(
        page(lengths[-3]), page(lengths[-2]), page(lengths[-1]),
        page(lengths[-3], fill=2))
    kernel.compress(page(100))
    assert list(kernel._memo) == [
        page_kind(page(n)) for n in (lengths[-2], lengths[-1], 100)]
    assert len(kernel._results) == 4
    assert kernel.selection_snapshot()["kinds"] == 3


def test_raw_fallback_on_incompressible():
    kernel = AdaptiveCompressor()
    result = kernel.compress(random_page(4))
    assert result.stored_raw
    assert kernel.selection_snapshot()["raw_fallbacks"] == 1
    assert kernel.decompress(result) == random_page(4)


def test_unknown_tag_and_empty_payload_raise():
    kernel = AdaptiveCompressor()
    with pytest.raises(CorruptDataError):
        kernel.decompress(CompressionResult(b"", PAGE))
    bogus = max(KERNEL_TAGS.values()) + 17
    with pytest.raises(CorruptDataError):
        kernel.decompress(CompressionResult(bytes([bogus, 0, 0]), PAGE))


def test_page_kind_buckets_are_stable_and_cheap():
    zeros = page_kind(bytes(PAGE))
    text = page_kind(b"abcdefgh" * (PAGE // 8))
    assert zeros != text
    assert page_kind(bytes(PAGE)) == zeros
    assert page_kind(b"xy") == ("tiny", 2)


def test_tag_table_is_total_over_registered_kernels():
    """Every registered kernel except the selector itself has a frozen
    payload tag — a new kernel must claim one to join the candidates."""
    for name in available():
        if name == "adaptive":
            continue
        assert name in KERNEL_TAGS, f"kernel {name!r} has no payload tag"
    assert len(set(KERNEL_TAGS.values())) == len(KERNEL_TAGS)
