"""LZRW1 unit tests: format, round trips, corruption handling."""

import hashlib
import random
import tracemalloc

import pytest

from repro.compression._reference import SeedLzrw1, reference
from repro.compression.base import CorruptDataError
from repro.compression.lzrw1 import Lzrw1

from ..conftest import PAGE, sample_pages
from .test_golden_kernels import GOLDEN_DIGESTS, golden_corpus


@pytest.fixture
def lz():
    return Lzrw1()


class TestRoundTrip:
    def test_sample_pages(self, lz, rng):
        for label, data in sample_pages(rng).items():
            result = lz.compress(data)
            assert lz.decompress(result) == data, label

    def test_empty(self, lz):
        result = lz.compress(b"")
        assert result.stored_raw
        assert lz.decompress(result) == b""

    def test_single_byte(self, lz):
        result = lz.compress(b"x")
        assert lz.decompress(result) == b"x"

    def test_below_min_match(self, lz):
        for n in range(1, 5):
            data = b"ab" * n
            assert lz.decompress(lz.compress(data)) == data

    def test_all_lengths_around_group_boundary(self, lz):
        # Group flushes happen every 16 items; exercise sizes around them.
        for n in (15, 16, 17, 31, 32, 33, 255, 256, 257):
            data = (b"abcabcabc" * 40)[:n]
            assert lz.decompress(lz.compress(data)) == data

    def test_overlapping_copy(self, lz):
        # "aaaa..." forces self-overlapping matches (offset 1).
        data = b"a" * 1000
        result = lz.compress(data)
        assert result.compressed_size < 200
        assert lz.decompress(result) == data

    def test_max_match_runs(self, lz):
        # Long runs decompose into chained 18-byte copies.
        data = b"xyz" * 600
        result = lz.compress(data)
        assert result.ratio < 0.25
        assert lz.decompress(result) == data


class TestCompressionQuality:
    def test_incompressible_stored_raw(self, lz, rng):
        data = bytes(rng.randrange(256) for _ in range(PAGE))
        result = lz.compress(data)
        assert result.stored_raw
        assert result.compressed_size == PAGE

    def test_zero_page_compresses_hard(self, lz):
        result = lz.compress(bytes(PAGE))
        assert result.ratio < 0.15

    def test_text_compresses_well(self, lz):
        data = (b"compression cache compression cache " * 200)[:PAGE]
        assert lz.compress(data).ratio < 0.2

    def test_never_expands(self, lz, rng):
        # The raw fallback caps stored size at the original size.
        for data in sample_pages(rng).values():
            assert lz.compress(data).compressed_size <= len(data)

    def test_window_limit_respected(self, lz):
        # Repeats farther apart than 4095 bytes cannot be matched.
        seed = bytes(random.Random(3).randrange(256) for _ in range(4200))
        data = seed + seed  # repeat beyond the offset window start
        result = lz.compress(data)
        assert lz.decompress(result) == data


class TestHashTableSizing:
    def test_default_matches_paper(self):
        # Section 4.4: "the hash table is 16 Kbytes".
        assert Lzrw1().hash_table_bytes == 16 * 1024

    def test_table_size_changes_output(self, rng):
        # Collisions in a small table alter match choices; on varied
        # inputs the aggregate effect is close to neutral per page but
        # the outputs genuinely differ (both must still round trip).
        data = sample_pages(rng)["counter"]
        big = Lzrw1(table_bits=12)
        small = Lzrw1(table_bits=6)
        big_out = big.compress(data)
        small_out = small.compress(data)
        assert big.decompress(big_out) == data
        assert small.decompress(small_out) == data
        assert small_out.compressed_size >= big_out.compressed_size

    def test_table_memory_scales(self):
        assert Lzrw1(table_bits=10).hash_table_bytes == 4096
        assert Lzrw1(table_bits=14).hash_table_bytes == 64 * 1024

    def test_small_table_still_round_trips(self, rng):
        small = Lzrw1(table_bits=5)
        for data in sample_pages(rng).values():
            assert small.decompress(small.compress(data)) == data

    def test_invalid_table_bits_rejected(self):
        with pytest.raises(ValueError):
            Lzrw1(table_bits=2)
        with pytest.raises(ValueError):
            Lzrw1(table_bits=25)


#: One hash table of the default size: 4,096 four-byte entries.
ONE_TABLE = 4096 * 4


class TestSharedScratch:
    """The compiled encoder's hash table is one per table size in the
    process, reset on every call, not one per instance — the service
    builds an ``Lzrw1`` per virtual slot.  (The seed's loop, the
    fallback, builds its table per call.)"""

    def test_instances_carry_no_table(self):
        page = golden_corpus()[5]          # a text page: a well-used table
        Lzrw1().compress(page)             # the process's table exists
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kernels = [Lzrw1() for _ in range(64)]
            built = tracemalloc.get_traced_memory()[0]
            for kernel in kernels:
                kernel.compress(page)
            used = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # A table per instance would cost 64 tables.
        assert built - before < 64 * 1024
        assert used - built < ONE_TABLE

    @pytest.mark.parametrize("compiled_first", [True, False])
    @pytest.mark.parametrize("bits", [10, 12, 14])
    def test_interleaved_instances_emit_the_seed_payloads(
            self, bits, compiled_first):
        """A compiled and a reference instance of one size, and a
        compiled one of another size compressing a different page
        between every pair of their calls, each emit exactly what a
        fresh seed instance (its own table) emits."""
        pages = golden_corpus()
        compiled = Lzrw1(table_bits=bits)
        loop = reference("lzrw1", table_bits=bits)
        pair = (compiled, loop) if compiled_first else (loop, compiled)
        other = Lzrw1(table_bits=bits - 4)
        digest = hashlib.sha256()
        for index, page in enumerate(pages):
            got = pair[index % 2].compress(page)
            between = pages[-1 - index]
            assert other.compress(between).payload == SeedLzrw1(
                table_bits=bits - 4).compress(between).payload
            want = SeedLzrw1(table_bits=bits).compress(page)
            assert got.payload == want.payload, (bits, index)
            digest.update(got.payload)
            digest.update(b"\x00" if got.stored_raw else b"\x01")
        if bits == 12:
            assert digest.hexdigest() == GOLDEN_DIGESTS["lzrw1-tb12"]


class TestCorruption:
    def test_truncated_payload(self, lz):
        data = (b"hello world " * 400)[:PAGE]
        result = lz.compress(data)
        assert not result.stored_raw
        from repro.compression.base import CompressionResult

        broken = CompressionResult(result.payload[:-3], result.original_size)
        with pytest.raises(CorruptDataError):
            lz.decompress(broken)

    def test_bad_offset_detected(self, lz):
        from repro.compression.base import CompressionResult

        # Control word 0x0001 marks item 0 as a copy with offset 0.
        payload = bytes([0x01, 0x00, 0x00, 0x00])
        with pytest.raises(CorruptDataError):
            lz.decompress(CompressionResult(payload, 16))

    def test_short_output_detected(self, lz):
        from repro.compression.base import CompressionResult

        # One literal but the caller claims 100 original bytes.
        payload = bytes([0x00, 0x00, ord("a")])
        with pytest.raises(CorruptDataError):
            lz.decompress(CompressionResult(payload, 100))

    def test_compress_verified_passes(self, lz, rng):
        for data in sample_pages(rng).values():
            lz.compress_verified(data)
