"""Compression sampler: memoization correctness and modes."""

import pytest

from repro.compression import CompressionSampler, create

from ..conftest import sample_pages


@pytest.fixture
def sampler():
    return CompressionSampler(create("lzrw1"))


class TestMemoization:
    def test_agrees_with_exact(self, rng):
        exact = CompressionSampler(create("lzrw1"), exact=True)
        memo = CompressionSampler(create("lzrw1"))
        for data in sample_pages(rng).values():
            assert memo.compressed_size(data) == exact.compressed_size(data)
            assert memo.compressed_size(data) == exact.compressed_size(data)

    def test_hits_counted(self, sampler, rng):
        data = sample_pages(rng)["text"]
        sampler.compressed_size(data)
        sampler.compressed_size(data)
        assert sampler.hits == 1
        assert sampler.misses == 1
        assert 0.0 < sampler.hit_rate <= 0.5

    def test_exact_mode_never_caches(self, rng):
        exact = CompressionSampler(create("lzrw1"), exact=True)
        data = sample_pages(rng)["text"]
        exact.compressed_size(data)
        exact.compressed_size(data)
        assert exact.hits == 0
        assert exact.misses == 2

    def test_capacity_bound(self):
        sampler = CompressionSampler(create("null"), max_entries=4)
        for i in range(10):
            sampler.compressed_size(bytes([i]) * 64)
        assert len(sampler._payload_cache) == 4

    def test_memo_stays_at_its_cap_fifo(self):
        """More distinct pages than ``max_entries``: the oldest go
        first, whichever of the two lookups filled the memo."""
        sampler = CompressionSampler(create("null"), max_entries=4)
        pages = [bytes([i]) * 64 for i in range(10)]
        for i, page in enumerate(pages):
            (sampler.compress if i % 2 else sampler.compressed_size)(page)
            assert len(sampler._payload_cache) == min(i + 1, 4)
        assert list(sampler._payload_cache) == [
            CompressionSampler.fingerprint(page) for page in pages[6:]
        ]
        assert (sampler.hits, sampler.misses) == (0, 10)
        sampler.compressed_size(pages[9])     # newest entry: a hit
        sampler.compressed_size(pages[0])     # evicted: measured again
        assert (sampler.hits, sampler.misses) == (1, 11)
        assert len(sampler._payload_cache) == 4

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            CompressionSampler(create("null"), max_entries=0)

    def test_clear(self, sampler, rng):
        sampler.compressed_size(sample_pages(rng)["text"])
        sampler.clear()
        assert sampler.hits == 0 and sampler.misses == 0
        assert len(sampler._payload_cache) == 0

    def test_precomputed_fingerprint_hits_same_entry(self, sampler, rng):
        data = sample_pages(rng)["text"]
        fp = CompressionSampler.fingerprint(data)
        # Seed the memo *without* a fingerprint, probe *with* one (and
        # vice versa): both spellings must address the same entry.
        size = sampler.compressed_size(data)
        assert sampler.compressed_size(data, fingerprint=fp) == size
        assert sampler.hits == 1
        # One memo: compress() is served by the entry compressed_size()
        # made, and the other way round.
        assert sampler.compress(data, fingerprint=fp).compressed_size == size
        assert sampler.compressed_size(data) == size
        assert (sampler.hits, sampler.misses) == (3, 1)
        assert len(sampler._payload_cache) == 1


class TestStableKeys:
    def test_stable_key_shares_measurement(self, sampler, rng):
        pages = sample_pages(rng)
        size1 = sampler.compressed_size(pages["text"], stable_key="page-1")
        # A different buffer under the same key reuses the measurement.
        size2 = sampler.compressed_size(pages["tiled"], stable_key="page-1")
        assert size1 == size2
        assert sampler.hits == 1

    def test_stable_key_ignored_in_exact_mode(self, rng):
        exact = CompressionSampler(create("lzrw1"), exact=True)
        pages = sample_pages(rng)
        size1 = exact.compressed_size(pages["text"], stable_key="k")
        size2 = exact.compressed_size(pages["random"], stable_key="k")
        assert size1 != size2

    def test_stable_key_approximation_is_tight_for_small_writes(self, rng):
        """One-word updates move LZRW1 sizes by well under the 4:3 slack."""
        import struct

        exact = CompressionSampler(create("lzrw1"), exact=True)
        base = bytearray(sample_pages(rng)["tiled"])
        size0 = exact.compressed_size(bytes(base))
        struct.pack_into("<I", base, 0, 0xDEADBEEF)
        size1 = exact.compressed_size(bytes(base))
        assert abs(size1 - size0) < 64


class TestSharedResults:
    """Process-wide content-addressed reuse of deterministic results."""

    @pytest.fixture(autouse=True)
    def _fresh_shared_cache(self):
        from repro.compression import sampler as sampler_mod

        sampler_mod.clear_shared_results()
        yield
        sampler_mod.clear_shared_results()

    @staticmethod
    def _counting_lzrw1():
        from repro.compression.lzrw1 import Lzrw1

        class Counting(Lzrw1):
            calls = 0

            def compress(self, data):
                Counting.calls += 1
                return super().compress(data)

        return Counting

    def test_kernel_runs_once_across_instances(self, rng):
        counting = self._counting_lzrw1()
        data = sample_pages(rng)["text"]
        a = CompressionSampler(counting())
        b = CompressionSampler(counting())
        assert a.compressed_size(data) == b.compressed_size(data)
        # Accounting stays per-instance: each sampler saw the content for
        # the first time, so each counts a miss ...
        assert (a.misses, b.misses) == (1, 1)
        # ... but the kernel only ran for the first one.
        assert counting.calls == 1

    def test_exact_mode_never_replays(self, rng):
        counting = self._counting_lzrw1()
        data = sample_pages(rng)["text"]
        CompressionSampler(counting()).compressed_size(data)
        exact = CompressionSampler(counting(), exact=True)
        exact.compressed_size(data)
        exact.compressed_size(data)
        assert counting.calls == 3

    def test_stable_key_miss_replays_by_content(self, rng):
        # The memo key is the stable key, but the kernel-run shortcut is
        # addressed by the bytes themselves — so a second run measuring
        # identical content under any stable key skips the kernel.
        counting = self._counting_lzrw1()
        data = sample_pages(rng)["text"]
        a = CompressionSampler(counting())
        b = CompressionSampler(counting())
        size_a = a.compressed_size(data, stable_key="run1-page7")
        size_b = b.compressed_size(data, stable_key="run2-page7")
        assert size_a == size_b
        assert (a.misses, b.misses) == (1, 1)
        assert counting.calls == 1

    def test_stable_keys_never_shared(self, rng):
        pages = sample_pages(rng)
        a = CompressionSampler(create("lzrw1"))
        b = CompressionSampler(create("lzrw1"))
        a.compressed_size(pages["text"], stable_key="k")
        # b's first measurement under the same stable key must measure
        # *its own* bytes — a's mapping of "k" to content is per-run.
        size_b = b.compressed_size(pages["random"], stable_key="k")
        exact = CompressionSampler(create("lzrw1"), exact=True)
        assert size_b == exact.compressed_size(pages["random"])


class TestPayloads:
    def test_keep_payloads_round_trips(self, rng):
        # The memo always keeps payloads; there is no sizes-only mode.
        sampler = CompressionSampler(create("lzrw1"))
        data = sample_pages(rng)["text"]
        result = sampler.compress(data)
        assert sampler.compressor.decompress(result) == data

    def test_payload_cache_hit(self, rng):
        sampler = CompressionSampler(create("lzrw1"))
        data = sample_pages(rng)["text"]
        first = sampler.compress(data)
        second = sampler.compress(data)
        assert first is second
