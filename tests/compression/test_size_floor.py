"""The sampler's stand-ins: payload-free, and invisible.

A sampler whose caller reads only the 4:3 keep decision memoizes a page
whose kernel result fails it as a payload-free
:class:`~repro.compression.sampler.ProvenRejected`.  (The file is named
for the LZ size floor that first made stand-ins, without running the
kernel; the floor cost more than the compiled kernels it screened and
is gone.)  Two things must hold:

* *isolation* — a stand-in never reaches a caller that reads bytes:
  :func:`shared_compress`, a threshold-less memo hit, a looser
  threshold, a tier demotion and a spill to the store all get the
  kernel's real result;
* *invisibility* — a run whose evictions get the kernel's real results
  instead gives the same digest, sampler counts and compression
  statistics.
"""

from __future__ import annotations

import random

import pytest

from repro.compression import create
from repro.compression.base import CompressionResult
from repro.compression.lzrw1 import Lzrw1
from repro.compression.sampler import (
    CompressionSampler,
    ProvenRejected,
    clear_shared_results,
    shared_compress,
)
from repro.compression.stats import CompressionThreshold
from repro.mem.page import PageId, mbytes
from repro.sim.engine import SimulationEngine
from repro.sim.machine import Machine, MachineConfig
from repro.tiers.spec import parse_tier_specs
from repro.workloads import (
    CompareWorkload,
    GoldWorkload,
    MultiProgramWorkload,
    SortWorkload,
    SyntheticWorkload,
    Thrasher,
)

PAGE = 4096
THRESHOLD = CompressionThreshold()
#: ``sim-cold``'s trace scale (benchmarks/e2e/sim_workloads.py).
SIM_SCALE = 0.04


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


def paper_traces(seed: int) -> dict:
    """Three of ``sim-cold``'s traces at this seed, with rejected pages."""
    s = SIM_SCALE
    return {
        "sort-random": lambda: SortWorkload(
            mbytes(12 * s), partial=False, seed=seed),
        "gold-warm": lambda: GoldWorkload(
            "warm", mbytes(30 * s), operations=max(30, int(8000 * s)),
            seed=seed),
        "multiprogram": lambda: MultiProgramWorkload([
            CompareWorkload(mbytes(12 * s), round_trips=2, seed=seed),
            SortWorkload(mbytes(8 * s), partial=True, seed=seed),
            SyntheticWorkload(mbytes(6 * s),
                              references=max(500, int(30000 * s)),
                              seed=seed),
        ], quantum=64),
    }


def run_trace(factory):
    """One cold run: ``(RunResult, machine)``."""
    clear_shared_results()
    workload = factory()
    machine = Machine(MachineConfig(memory_bytes=mbytes(6 * SIM_SCALE)),
                      workload.build())
    return SimulationEngine(machine).run(workload.references()), machine


def hopeless() -> bytes:
    return random.Random(21).randbytes(PAGE)


class TestIsolation:
    """A stand-in reaches only a caller that passed a threshold."""

    @pytest.fixture(autouse=True)
    def empty_caches(self):
        clear_shared_results()
        yield
        clear_shared_results()

    def test_a_threshold_caller_gets_a_stand_in_and_runs_no_kernel(
            self, monkeypatch):
        """The kernel runs on the first sight only: the memo hit and a
        second sampler's miss replay the stand-in."""
        page = hopeless()
        sampler = CompressionSampler(create("lzrw1"))

        def no_kernel(self, data):
            raise AssertionError("the kernel ran on a rejected page")

        result = sampler.compress(page, threshold=THRESHOLD)
        monkeypatch.setattr(Lzrw1, "compress", no_kernel)
        assert type(result) is ProvenRejected
        assert (result.payload, result.compressed_size) == (b"", PAGE)
        assert sampler.compress(page, threshold=THRESHOLD) is result
        assert (sampler.hits, sampler.misses) == (1, 1)
        # A second sampler's miss replays the shared stand-in.
        other = CompressionSampler(create("lzrw1"))
        assert other.compress(page, threshold=THRESHOLD) is result

    def test_shared_compress_runs_the_kernel(self):
        page = hopeless()
        kernel = create("lzrw1")
        CompressionSampler(kernel).compress(page, threshold=THRESHOLD)
        result = shared_compress(kernel, page)
        assert type(result) is not ProvenRejected
        assert result == kernel.compress(page)
        assert shared_compress(kernel, page) is result

    def test_a_threshold_less_memo_hit_recomputes_and_counts_a_hit(self):
        page = hopeless()
        sampler = CompressionSampler(create("lzrw1"))
        sampler.compress(page, threshold=THRESHOLD)
        result = sampler.compress(page)
        assert type(result) is not ProvenRejected
        assert result == create("lzrw1").compress(page)
        assert (sampler.hits, sampler.misses) == (1, 1)
        # The entry is real now, for every later caller.
        assert sampler.compress(page, threshold=THRESHOLD) is result

    def test_a_looser_threshold_gets_the_kernel_result(self):
        """A stand-in made under 4:3 settles nothing for a threshold
        the real result may pass: the memo hit and a second sampler's
        miss both get the kernel's bytes."""
        page = tight_page()
        size = create("lzrw1").compress(page).compressed_size
        looser = CompressionThreshold(PAGE / (size + 1))
        assert looser.keep_compressed(PAGE, size)
        sampler = CompressionSampler(create("lzrw1"))
        stand_in = sampler.compress(page, threshold=THRESHOLD)
        assert type(stand_in) is ProvenRejected
        assert stand_in.settles(THRESHOLD) and not stand_in.settles(looser)
        result = sampler.compress(page, threshold=looser)
        assert (type(result), result.compressed_size) == (
            CompressionResult, size)
        assert (sampler.hits, sampler.misses) == (1, 1)
        other = CompressionSampler(create("lzrw1"))
        assert other.compress(page, threshold=looser) is result

    def test_a_rejected_kernel_result_keeps_no_payload(self):
        """A result that fails 4:3 without being stored raw is memoized
        as a stand-in holding that result's size; a caller that reads
        bytes still gets the result."""
        page = random.Random(8).randbytes(PAGE - 800) + bytes(800)
        kernel = create("rle")
        real = kernel.compress(page)
        assert not real.stored_raw
        assert not THRESHOLD.keep_compressed(PAGE, real.compressed_size)
        sampler = CompressionSampler(kernel)
        result = sampler.compress(page, threshold=THRESHOLD)
        assert type(result) is ProvenRejected
        assert (result.payload, result.floor) == (b"", real.compressed_size)
        assert sampler.compress(page) == real
        assert shared_compress(kernel, page) == real

    def test_exact_mode_always_runs_the_kernel(self):
        page = hopeless()
        sampler = CompressionSampler(create("lzrw1"), exact=True)
        result = sampler.compress(page, threshold=THRESHOLD)
        assert type(result) is not ProvenRejected
        assert result.payload == page

    def chain(self, tiers: str):
        memory = mbytes(6 * 0.05)
        workload = Thrasher(int(memory * 2), cycles=1, write=True)
        machine = Machine(MachineConfig(
            memory_bytes=memory, tiers=parse_tier_specs(tiers)),
            workload.build())
        return machine

    def test_a_demotion_stores_real_bytes(self):
        """Both tiers run lzrw1, so the target's sampler shares the
        warmest tier's entries — the stand-in included."""
        machine = self.chain("lzrw1:8,lzrw1")
        warmest, target = machine.chain.tiers
        page = hopeless()
        assert type(warmest.sampler.compress(
            page, threshold=THRESHOLD)) is ProvenRejected
        page_id = PageId(0, 0)
        warmest.cache.insert(page_id, page, dirty=True, now=0.0,
                             content_version=1)
        warmest.sink.put(page_id, page)
        assert target.cache.fetch(page_id, remove=True)[0] == page

    def test_a_spill_stores_real_bytes(self):
        machine = self.chain("lzrw1:8,lzss:8,lzrw1")
        warmest, middle, terminal = machine.chain.tiers
        page = hopeless()
        assert type(warmest.sampler.compress(
            page, threshold=THRESHOLD)) is ProvenRejected
        page_id = PageId(0, 0)
        middle_result = middle.sampler.compress(page)
        warmest.sink._spill_to_store(page_id, page, middle_result, 1)
        stored = terminal.cache.fragstore.get(page_id)[0]
        assert stored == page


@pytest.mark.parametrize("trace", ("sort-random", "gold-warm", "multiprogram"))
def test_runs_with_the_floor_off_are_identical(trace, monkeypatch):
    """Same digest, sampler counts and statistics when no eviction gets
    a stand-in — every one gets the kernel's real result — on traces
    with rejected pages; and stand-ins were handed out, so the
    comparison is not vacuous."""
    stand_ins = []
    sampler_compress = CompressionSampler.compress

    def counting(self, data, *args, **kwargs):
        result = sampler_compress(self, data, *args, **kwargs)
        if type(result) is ProvenRejected:
            stand_ins.append(result)
        return result

    factory = paper_traces(1)[trace]
    monkeypatch.setattr(CompressionSampler, "compress", counting)
    on, machine_on = run_trace(factory)
    assert stand_ins
    monkeypatch.setattr(
        CompressionSampler, "compress",
        lambda self, data, *args, threshold=None, **kwargs:
        sampler_compress(self, data, *args, **kwargs))
    real, machine_real = run_trace(factory)
    clear_shared_results()
    assert on.digest() == real.digest()
    assert (on.sampler_hits, on.sampler_misses) == (
        real.sampler_hits, real.sampler_misses)
    assert machine_on.vm.metrics.compression == \
        machine_real.vm.metrics.compression
