"""Golden-output tests: the optimized kernels equal the seed kernels.

The LZRW1/LZSS rewrites in this repository are *pure* speed work — every
compressed payload must be byte-identical to what the seed
implementations (frozen in ``repro.compression._seed_reference``)
produce, or the paper's Table 1 / Figure 3 ratios silently drift.  Two
layers of protection:

* every page in a deterministic corpus is compressed by both encoders
  and the payloads diffed directly;
* an aggregate SHA-256 over all corpus payloads is pinned, so even a
  coordinated edit of kernel *and* reference is caught.

``Lzrw1`` runs its compiled encoder where it loads and the seed's loop
elsewhere (``CC=false``), so these rows hold whichever ran.
"""

from __future__ import annotations

import hashlib
import random
from typing import List

import pytest

from repro.compression._seed_reference import SeedLzrw1, SeedLzss
from repro.compression.lzrw1 import Lzrw1
from repro.compression.lzss import Lzss
from repro.workloads import contentgen

#: Aggregate SHA-256 of (payload + raw-flag byte) over the whole corpus,
#: computed from the seed kernels.  Pinned: a change here is a breaking
#: format change, not a refactor.
GOLDEN_DIGESTS = {
    "lzrw1-tb12": "81e8b2c46fc5cf625df66e9e33bd1823009229048d1d6edbaecca6e937c7f26a",
    "lzrw1-tb6": "a4a41bf84300590de491a1fa714fdbb814711175d0ba8b83c8826c1b0aab766b",
    "lzss-d16-lazy": "484cf0e285e91e1046c8fc1972946203c67c340931e2a489e019fef7bb44020c",
    "lzss-d4-greedy": "6df98f7c48d1f17c4820e6bd0a2105652ac13f050655b304fea7c29647e53b56",
}


def golden_corpus() -> List[bytes]:
    """Deterministic pages spanning every workload's compressibility."""
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
    # Short inputs around the raw-fallback and group-flush boundaries.
    for n in (0, 1, 2, 3, 4, 5, 15, 16, 17, 31, 33, 255, 257, 1000):
        pages.append((b"abcabcabc!" * 110)[:n])
    return pages


PAIRS = {
    "lzrw1-tb12": (lambda: Lzrw1(), lambda: SeedLzrw1()),
    "lzrw1-tb6": (lambda: Lzrw1(table_bits=6), lambda: SeedLzrw1(table_bits=6)),
    "lzss-d16-lazy": (lambda: Lzss(), lambda: SeedLzss()),
    "lzss-d4-greedy": (
        lambda: Lzss(chain_depth=4, lazy=False),
        lambda: SeedLzss(chain_depth=4, lazy=False),
    ),
}


@pytest.mark.parametrize("variant", sorted(PAIRS))
def test_bit_identical_to_seed_kernel(variant):
    live_factory, seed_factory = PAIRS[variant]
    live, seed = live_factory(), seed_factory()
    digest = hashlib.sha256()
    for page in golden_corpus():
        got = live.compress(page)
        want = seed.compress(page)
        assert got.payload == want.payload, (
            f"{variant}: payload diverges on a {len(page)}-byte page"
        )
        assert got.stored_raw == want.stored_raw
        assert got.original_size == want.original_size == len(page)
        digest.update(got.payload)
        digest.update(b"\x00" if got.stored_raw else b"\x01")
    assert digest.hexdigest() == GOLDEN_DIGESTS[variant], (
        f"{variant}: corpus digest changed — the stored format moved"
    )


@pytest.mark.parametrize("variant", sorted(PAIRS))
def test_decompressors_agree_on_seed_payloads(variant):
    """The optimized decoder accepts the seed encoder's payloads verbatim."""
    live_factory, seed_factory = PAIRS[variant]
    live, seed = live_factory(), seed_factory()
    for page in golden_corpus():
        result = seed.compress(page)
        assert live.decompress(result) == page
        assert seed.decompress(live.compress(page)) == page
