"""LZSS: the table-walking encoder against the seed, on arbitrary input.

``Lzss.compress`` never builds the seed's hash table: it derives the
chains (and, with numpy, the positions that can match at all) from the
bytes alone and walks those.  The golden corpus in
``test_golden_kernels.py`` pins the common pages; here Hypothesis hunts
the seams — the 4,095-byte offset cap (inputs up to 12 KB), the 256-byte
threshold under which the numpy pass is skipped, tiny alphabets whose
chains overflow every depth budget, and planted repeats that put equal
trigrams far apart.  The default instance, ``fast=False`` and
``SeedLzss`` must agree byte for byte.  Without numpy the first two are
the same scalar table builder, which is then what the seed is held to.
"""

from __future__ import annotations

import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.compression._seed_reference import SeedLzss
from repro.compression.lzss import Lzss


@st.composite
def inputs(draw) -> bytes:
    if draw(st.integers(0, 4)) == 0:
        return draw(st.binary(max_size=1024))
    size = draw(st.integers(0, 12 * 1024))
    alphabet = draw(st.sampled_from((1, 2, 4, 256)))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    if not draw(st.booleans()):
        return bytes(rng.choices(range(alphabet), k=size))
    # A few short blocks repeated among random filler: equal trigrams at
    # every distance, including beyond the offset cap.
    pool = [bytes(rng.choices(range(alphabet), k=rng.randrange(3, 40)))
            for _ in range(rng.randrange(1, 6))]
    parts, total = [], 0
    while total < size:
        part = (rng.choice(pool) if rng.random() < 0.4 else
                bytes(rng.choices(range(alphabet), k=rng.randrange(1, 700))))
        parts.append(part)
        total += len(part)
    return b"".join(parts)[:size]


@settings(max_examples=150, deadline=None)
@given(data=inputs(),
       chain_depth=st.sampled_from((1, 4, 16, 64)),
       lazy=st.booleans())
def test_default_scalar_and_seed_agree(data, chain_depth, lazy):
    want = SeedLzss(chain_depth, lazy).compress(data)
    for fast in (None, False):
        kernel = Lzss(chain_depth, lazy, fast=fast)
        got = kernel.compress(data)
        assert got.payload == want.payload, (fast, len(data))
        assert got.stored_raw == want.stored_raw
        assert got.original_size == len(data)
        assert kernel.decompress(got) == data


@pytest.mark.parametrize("distance", [4093, 4094, 4095, 4096, 4097])
def test_offset_cap_boundary(distance):
    """A block whose only earlier copy lies at, just short of and just
    past ``_MAX_OFFSET`` (zeros between them, so the page is not stored
    raw and the copy is the one match that can move)."""
    block = bytes(random.Random(distance).choices(range(1, 256), k=12))
    data = b"ab" + block + bytes(distance - len(block)) + block + b"yz"
    want = SeedLzss().compress(data)
    assert not want.stored_raw
    for fast in (None, False):
        got = Lzss(fast=fast).compress(data)
        assert (got.payload, got.stored_raw) == (want.payload,
                                                 want.stored_raw)


def _footprint(obj) -> dict:
    return {name: (type(value).__name__, sys.getsizeof(value),
                   len(value) if hasattr(value, "__len__") else None)
            for name, value in vars(obj).items()}


def test_instance_holds_nothing_per_page():
    """The ROADMAP memo audit, for this kernel: no attribute grows with
    the number (or size) of pages compressed."""
    rng = random.Random(16)
    kernel = Lzss()
    kernel.compress(bytes(rng.choices(range(8), k=600)))
    after_one = _footprint(kernel)
    for _ in range(1000):
        kernel.compress(bytes(rng.choices(range(8), k=rng.randrange(4, 900))))
    kernel.compress(bytes(rng.choices(range(8), k=12 * 1024)))
    assert _footprint(kernel) == after_one
