"""The LZ size floor: sound, path-independent, and invisible.

:func:`repro.compression.lzrw1.lz_size_floor` bounds the bytes ``lzrw1``
and ``lzss`` store a page in, and a sampler whose caller reads only the
4:3 keep decision skips the kernel on a page the floor already rejects,
returning a payload-free :class:`~repro.compression.sampler.
ProvenRejected`.  Three things must hold:

* *soundness* — the floor never exceeds the stored size, for every
  ``lzrw1`` table size and ``lzss`` search the package builds, on the
  ``contentgen`` corpus, every page ``sim-cold`` evicts at seeds 1-3,
  pages planted on the bound and across the 4:3 line, and a Hypothesis
  strategy; the numpy and scalar counts agree;
* *isolation* — a stand-in never reaches a caller that reads bytes:
  :func:`shared_compress`, a threshold-less memo hit, a tier demotion
  and a spill to the store all get the kernel's real result;
* *invisibility* — a run with the floor off gives the same digest,
  sampler counts and compression statistics.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.compression import create, vectorized
from repro.compression.base import CompressionResult
from repro.compression.lzrw1 import Lzrw1, lz_size_floor
from repro.compression.sampler import (
    CompressionSampler,
    ProvenRejected,
    clear_shared_results,
    shared_compress,
)
from repro.compression.stats import CompressionThreshold
from repro.mem.page import PageId, mbytes
from repro.perf import _corpus_kinds
from repro.sim.engine import SimulationEngine
from repro.sim.machine import Machine, MachineConfig
from repro.tiers.spec import parse_tier_specs
from repro.workloads import (
    CacheSimWorkload,
    CompareWorkload,
    GoldWorkload,
    MultiProgramWorkload,
    SortWorkload,
    SyntheticWorkload,
    Thrasher,
)

PAGE = 4096
NUMPY = vectorized._np
THRESHOLD = CompressionThreshold()
#: Every configuration the floor must bound.
KERNELS = {
    "lzrw1/4": create("lzrw1", table_bits=4),
    "lzrw1/12": create("lzrw1", table_bits=12),
    "lzrw1/20": create("lzrw1", table_bits=20),
    "lzss/1/lazy": create("lzss", chain_depth=1),
    "lzss/1/greedy": create("lzss", chain_depth=1, lazy=False),
    "lzss/16/lazy": create("lzss", chain_depth=16),
    "lzss/16/greedy": create("lzss", chain_depth=16, lazy=False),
}
#: ``sim-cold``'s trace scale (benchmarks/e2e/sim_workloads.py).
SIM_SCALE = 0.04


def floor_of(page: bytes) -> int:
    """The floor, after checking both counting paths agree on it."""
    floor = lz_size_floor(page, None)
    if NUMPY is not None:
        assert lz_size_floor(page, NUMPY) == floor
    return floor


def assert_sound(page: bytes, kernels=KERNELS) -> int:
    floor = floor_of(page)
    for name, kernel in kernels.items():
        size = kernel.compress(page).compressed_size
        assert floor <= size, (name, floor, size)
    return floor


def corpus() -> list:
    return [page for pages in _corpus_kinds(8).values() for page in pages]


def planted(length: int, copies: int, seed: int) -> bytes:
    """A random page with ``copies`` repeats of ``length`` bytes, each
    one byte after its source: the only trigrams seen earlier are the
    first ``length - 2`` of each copy, so the floor counts exactly the
    bytes the copies save."""
    rng = random.Random(seed)
    page = bytearray(rng.randbytes(PAGE))
    span = 2 * length + 2
    for k in range(copies):
        at = span * k
        page[at + length + 1:at + 2 * length + 1] = page[at:at + length]
    return bytes(page)


def tight_pages() -> list:
    """3-byte copies: the copies save exactly ``R`` bytes in exactly
    ``n - 2R`` items, so the floor is the stored size itself."""
    return [planted(3, copies, copies) for copies in (450, 460, 500)]


def straddling_pages() -> list:
    """Longer copies, counted so the floor lands either side of 3 KBytes
    (the 4:3 line) and of the raw size."""
    return [planted(length, copies, 100 * length + copies)
            for length, counts in ((4, (204, 244)), (6, (291, 300)),
                                   (8, (201, 205, 223)),
                                   (12, (120, 123, 125)),
                                   (18, (73, 80, 83)))
            for copies in counts]


def paper_traces(seed: int) -> dict:
    """``sim-cold``'s six traces at this seed."""
    s = SIM_SCALE
    return {
        "thrasher": lambda: Thrasher(mbytes(12 * s), cycles=3, seed=seed),
        "compare": lambda: CompareWorkload(
            mbytes(24 * s), round_trips=2, seed=seed),
        "isca": lambda: CacheSimWorkload(
            mbytes(20 * s), events=max(500, int(60000 * s)), seed=seed),
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


@pytest.fixture(scope="module")
def sim_cold_pages():
    """``{page: lzrw1 stored size}`` for every page ``sim-cold`` hands
    its sampler at seeds 1-3, read off the kernel in runs with the floor
    off, so every page gets the kernel's real size."""
    sizes = {}
    compress = Lzrw1.compress

    def record(self, data):
        result = compress(self, data)
        sizes[bytes(data)] = result.compressed_size
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Lzrw1, "compress", record)
        patch.setattr(Lzrw1, "size_floor", None)
        for seed in (1, 2, 3):
            for factory in paper_traces(seed).values():
                run_trace(factory)
    clear_shared_results()
    return sizes


class TestSoundness:
    def test_corpus(self):
        for page in corpus():
            assert_sound(page)

    def test_tight_pages_meet_the_floor(self):
        """The floor is the stored size on these: a floor one byte
        higher, or an item bound of ``n - R``, fails here."""
        for page in tight_pages():
            stored = KERNELS["lzss/16/lazy"].compress(page).compressed_size
            assert assert_sound(page) == stored < PAGE

    def test_pages_across_the_four_to_three_line(self):
        floors = [assert_sound(page) for page in straddling_pages()]
        cut = PAGE * 3 // 4
        assert any(cut - 16 <= floor <= cut for floor in floors)
        assert any(cut < floor <= cut + 32 for floor in floors)
        assert PAGE in floors and any(floor < PAGE for floor in floors)

    def test_short_and_empty_pages(self):
        rng = random.Random(3)
        for size in (0, 1, 2, 3, 4, 17, 18, 19, 255, 256, 257):
            for page in (bytes(size), rng.randbytes(size)):
                assert_sound(page)

    def test_sim_cold_pages(self, sim_cold_pages):
        """Every page, against the kernel ``sim-cold`` runs; the other
        configurations on a fixed sample of them."""
        proven = 0
        for page, size in sim_cold_pages.items():
            floor = lz_size_floor(page)
            assert floor <= size
            proven += not THRESHOLD.keep_compressed(PAGE, floor)
            # A page the floor rejects is one the kernel rejects.
            assert THRESHOLD.keep_compressed(PAGE, floor) or (
                not THRESHOLD.keep_compressed(PAGE, size))
        assert proven > 0
        sample = sorted(sim_cold_pages)[::96]
        for page in sample:
            assert_sound(page)


@st.composite
def pages(draw) -> bytes:
    """Random bytes, runs and copies of earlier spans at lengths around
    the copy limits, at sizes around the numpy cut-over."""
    size = draw(st.sampled_from((3, 40, 255, 256, 1000, 4096)))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    out = bytearray()
    while len(out) < size:
        kind = draw(st.sampled_from(("random", "random", "run", "copy")))
        length = draw(st.integers(1, 40))
        if kind == "random" or not out:
            out += rng.randbytes(length)
        elif kind == "run":
            out += bytes([rng.randrange(256)]) * length
        else:
            start = rng.randrange(max(0, len(out) - 4095), len(out))
            out += bytes(out[start:start + length])
    return bytes(out[:size])


@settings(max_examples=80, deadline=None)
@given(page=pages())
def test_floor_holds_on_generated_pages(page):
    assert_sound(page)


def hopeless() -> bytes:
    return random.Random(21).randbytes(PAGE)


def with_floor(monkeypatch) -> None:
    """Give ``lzrw1`` the floor, which it does not offer, so the
    sampler's use of it is exercised whether numpy is installed and the
    compiled encoder loads or not."""
    monkeypatch.setattr(Lzrw1, "size_floor",
                        lambda self, data: lz_size_floor(data))


def test_only_the_numpy_kernels_offer_the_floor():
    """``lzss`` offers it on its numpy path; ``lzrw1`` offers none: its
    compiled encoder runs a page faster than the floor counts one, and
    its fallback is the seed's loop."""
    page = hopeless()
    assert create("lzss", fast=False).size_floor is None
    if NUMPY is not None:
        assert create("lzss").size_floor(page) == lz_size_floor(page, None)
    for fast in (None, True, False):
        assert create("lzrw1", fast=fast).size_floor is None
    assert create("rle").size_floor is None
    assert create("adaptive").size_floor is None


class TestIsolation:
    """A stand-in reaches only a caller that passed a threshold."""

    @pytest.fixture(autouse=True)
    def floor_and_empty_caches(self, monkeypatch):
        with_floor(monkeypatch)
        clear_shared_results()
        yield
        clear_shared_results()

    def test_a_threshold_caller_gets_a_stand_in_and_runs_no_kernel(
            self, monkeypatch):
        page = hopeless()
        sampler = CompressionSampler(create("lzrw1"))

        def no_kernel(data):
            raise AssertionError("the kernel ran on a proven page")

        monkeypatch.setattr(sampler.compressor, "compress", no_kernel)
        result = sampler.compress(page, threshold=THRESHOLD)
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
        page = tight_pages()[-1]
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
        """A kernel with no floor runs, and a result that fails 4:3 is
        memoized as a stand-in holding that result's size; a caller
        that reads bytes still gets the result."""
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
    """Same digest, sampler counts and statistics with the floor off,
    on traces with rejected pages — and the floor did skip kernel
    runs, so the comparison is not vacuous.  And the same again with
    no stand-in at all: every eviction gets the kernel's real result."""
    calls = []
    compress = Lzrw1.compress
    monkeypatch.setattr(
        Lzrw1, "compress",
        lambda self, data: calls.append(1) or compress(self, data))
    factory = paper_traces(1)[trace]
    with_floor(monkeypatch)
    on, machine_on = run_trace(factory)
    on_calls = len(calls)
    monkeypatch.setattr(Lzrw1, "size_floor", lambda self, data: 0)
    off, machine_off = run_trace(factory)
    off_calls = len(calls) - on_calls
    sampler_compress = CompressionSampler.compress
    monkeypatch.setattr(
        CompressionSampler, "compress",
        lambda self, data, *args, threshold=None, **kwargs:
        sampler_compress(self, data, *args, **kwargs))
    real, machine_real = run_trace(factory)
    clear_shared_results()
    for run, machine in ((off, machine_off), (real, machine_real)):
        assert on.digest() == run.digest()
        assert (on.sampler_hits, on.sampler_misses) == (
            run.sampler_hits, run.sampler_misses)
        assert machine_on.vm.metrics.compression == \
            machine.vm.metrics.compression
    assert on_calls < off_calls
