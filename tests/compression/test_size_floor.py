"""A page the 4:3 rule rejects gets the kernel's own result everywhere.

Every sampler memo and the process-wide result cache keep the kernel's
result for a rejected page, payload and all, and a tier demotion or a
spill to the store decodes it back to the page.  (The file is named for
the deleted LZ size floor, which let an eviction skip the kernel on a
page it proved rejected.)
"""

from __future__ import annotations

import random

import pytest

from repro.compression import create
from repro.compression.sampler import (
    CompressionSampler,
    clear_shared_results,
    shared_compress,
)
from repro.compression.stats import CompressionThreshold
from repro.mem.page import PageId, mbytes
from repro.sim.machine import Machine, MachineConfig
from repro.tiers.spec import parse_tier_specs
from repro.workloads import Thrasher

PAGE = 4096
THRESHOLD = CompressionThreshold()


def planted(length: int, copies: int, seed: int) -> bytes:
    """A random page with ``copies`` repeats of ``length`` bytes, each
    one byte after its source."""
    rng = random.Random(seed)
    page = bytearray(rng.randbytes(PAGE))
    span = 2 * length + 2
    for k in range(copies):
        at = span * k
        page[at + length + 1:at + 2 * length + 1] = page[at:at + length]
    return bytes(page)


def tight_page() -> bytes:
    """500 3-byte copies: each saves one byte, so the page compresses by
    a few hundred bytes, short of 4:3."""
    return planted(3, 500, 500)


def hopeless() -> bytes:
    return random.Random(21).randbytes(PAGE)


class TestIsolation:
    """What a rejected page's caller gets is the kernel's own result."""

    @pytest.fixture(autouse=True)
    def empty_caches(self):
        clear_shared_results()
        yield
        clear_shared_results()

    def test_shared_compress_runs_the_kernel(self):
        """The kernel's result for a page it compresses short of 4:3 is
        memoized with its payload: the memo hit, a second sampler's miss
        and :func:`shared_compress` all hand out that one result."""
        page = tight_page()
        kernel = create("lzrw1")
        real = kernel.compress(page)
        assert not real.stored_raw
        assert not THRESHOLD.keep_compressed(PAGE, real.compressed_size)
        sampler = CompressionSampler(kernel)
        result = sampler.compress(page)
        assert result == real
        assert sampler.compress(page) is result
        assert (sampler.hits, sampler.misses) == (1, 1)
        assert CompressionSampler(create("lzrw1")).compress(page) is result
        assert shared_compress(kernel, page) is result

    def test_exact_mode_always_runs_the_kernel(self):
        page = hopeless()
        sampler = CompressionSampler(create("lzrw1"), exact=True)
        first = sampler.compress(page)
        assert first.payload == page
        assert sampler.compress(page) == first
        assert sampler.compress(page) is not first
        assert (sampler.hits, sampler.misses) == (0, 0)

    def chain(self, tiers: str):
        memory = mbytes(6 * 0.05)
        workload = Thrasher(int(memory * 2), cycles=1, write=True)
        machine = Machine(MachineConfig(
            memory_bytes=memory, tiers=parse_tier_specs(tiers)),
            workload.build())
        return machine

    def test_a_demotion_stores_real_bytes(self):
        """Both tiers run lzrw1, so the target's sampler shares the
        warmest tier's entry for the rejected page."""
        machine = self.chain("lzrw1:8,lzrw1")
        warmest, target = machine.chain.tiers
        page = hopeless()
        assert warmest.sampler.compress(page).stored_raw
        page_id = PageId(0, 0)
        warmest.cache.insert(page_id, page, dirty=True, now=0.0,
                             content_version=1)
        warmest.sink.put(page_id, page)
        assert target.cache.fetch(page_id, remove=True)[0] == page

    def test_a_spill_stores_real_bytes(self):
        machine = self.chain("lzrw1:8,lzss:8,lzrw1")
        warmest, middle, terminal = machine.chain.tiers
        page = hopeless()
        assert warmest.sampler.compress(page).stored_raw
        page_id = PageId(0, 0)
        middle_result = middle.sampler.compress(page)
        warmest.sink._spill_to_store(page_id, page, middle_result, 1)
        stored = terminal.cache.fragstore.get(page_id)[0]
        assert stored == page
