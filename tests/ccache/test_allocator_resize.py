"""Dynamic pool resizing: spill safety, conservation, bad inputs.

``resize_pool`` is the mechanism the control plane leans on, so its edge
cases get their own suite: shrinking below a tier's live footprint must
spill pages through the demotion path (never drop them), arbitrary
resize sequences must conserve physical frames, and unregistered or
nonsensical requests must fail loudly instead of corrupting state.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ccache.allocator import TieredAllocator
from repro.mem.frames import FrameOwner, FramePool
from repro.mem.page import mbytes
from repro.sim.engine import SimulationEngine
from repro.sim.machine import Machine, MachineConfig
from repro.tiers.spec import parse_tier_specs
from repro.workloads import Thrasher


def two_tier_machine(scale=0.08, paranoid=False, cycles=2):
    memory = mbytes(6 * scale)
    workload = Thrasher(int(memory * 2), cycles=cycles, write=True)
    config = MachineConfig(
        memory_bytes=memory,
        tiers=parse_tier_specs("two-tier"),
        paranoid=paranoid,
    )
    return Machine(config, workload.build()), workload


class RecordingPool:
    """Minimal capped MemoryPool double for the failure-mode tests."""

    def __init__(self, nframes=10, max_frames=None, refuse_after=None):
        self.nframes = nframes
        self.max_frames = max_frames
        self.refuse_after = refuse_after
        self.shrinks = 0

    def coldest_age(self, now):
        return 1.0 if self.nframes else None

    def shrink_one(self):
        if self.refuse_after is not None and self.shrinks >= self.refuse_after:
            return None
        if self.nframes == 0:
            return None
        self.nframes -= 1
        self.shrinks += 1
        return 0.0


class UncappablePool:
    """A pool with no frame-cap attributes at all."""

    def coldest_age(self, now):
        return None

    def shrink_one(self):
        return None


def make_allocator(**pool_kwargs):
    allocator = TieredAllocator(FramePool(64))
    pool = RecordingPool(**pool_kwargs)
    allocator.register_pool("cc:test", pool, weight=1.0)
    return allocator, pool


class TestSpillSafety:
    def test_shrink_below_live_frames_spills_not_drops(self):
        """Shrink a populated L1 to a sliver, then fault everything back
        with paranoid content verification on: any page the resize had
        dropped instead of spilling would surface as a corruption."""
        machine, workload = two_tier_machine(paranoid=True)
        engine = SimulationEngine(machine)
        engine.run(workload.references())
        l1 = machine.chain.warmest
        live = l1.cache.nframes
        assert live > 8  # the thrasher must have filled the capped tier
        demoted_before = l1.sink.demoted_pages
        released = machine.allocator.resize_pool(FrameOwner.COMPRESSION, 8)
        assert l1.cache.max_frames == 8
        assert released > 0
        assert l1.cache.nframes <= live - released
        # The evicted pages went somewhere real: through the demotion
        # sink into L2/the store, not into the void.
        assert l1.sink.demoted_pages > demoted_before
        # Re-touching the whole space decompresses every page with the
        # paranoid checker comparing contents; survival == no data loss.
        engine.run(workload.references())

    def test_released_frames_return_to_the_free_pool(self):
        machine, workload = two_tier_machine()
        SimulationEngine(machine).run(workload.references())
        free_before = machine.frames.free_frames
        released = machine.allocator.resize_pool(FrameOwner.COMPRESSION, 8)
        assert released > 0
        # Some of the released frames are immediately re-spent holding
        # the spilled pages in L2, but the shrink must still come out
        # ahead: the free pool grows and nothing leaks.
        assert machine.frames.free_frames > free_before
        assert sum(machine.frames.split().values()) \
            == machine.frames.total_frames

    def test_lifting_the_cap_releases_nothing(self):
        machine, workload = two_tier_machine()
        SimulationEngine(machine).run(workload.references())
        live = machine.chain.warmest.cache.nframes
        released = machine.allocator.resize_pool(FrameOwner.COMPRESSION, None)
        assert released == 0
        assert machine.chain.warmest.cache.max_frames is None
        assert machine.chain.warmest.cache.nframes == live

    @settings(max_examples=10, deadline=None)
    @given(caps=st.lists(
        st.one_of(st.integers(min_value=1, max_value=64), st.none()),
        min_size=1, max_size=6,
    ))
    def test_frames_conserved_across_arbitrary_resizes(self, caps):
        """Every frame is always exactly one of: free, or allocated to
        an owner — no resize sequence may leak or mint frames."""
        machine, workload = two_tier_machine(scale=0.05, cycles=1)
        SimulationEngine(machine).run(workload.references())
        frames = machine.frames
        for cap in caps:
            machine.allocator.resize_pool(FrameOwner.COMPRESSION, cap)
            split = frames.split()  # includes the "free" bucket
            assert sum(split.values()) == frames.total_frames
            assert split["free"] == frames.free_frames
            if cap is not None:
                assert machine.chain.warmest.cache.max_frames == cap


class TestFailureModes:
    def test_resize_unregistered_pool_raises(self):
        allocator, _ = make_allocator()
        with pytest.raises(KeyError, match="unregistered pool 'cc:ghost'"):
            allocator.resize_pool("cc:ghost", 4)

    def test_retune_unregistered_pool_raises(self):
        allocator, _ = make_allocator()
        with pytest.raises(KeyError, match="unregistered pool 'cc:ghost'"):
            allocator.retune("cc:ghost", weight=2.0)

    def test_resize_uncappable_pool_raises(self):
        allocator = TieredAllocator(FramePool(8))
        allocator.register_pool("flat", UncappablePool(), weight=1.0)
        with pytest.raises(TypeError, match="does not support a frame cap"):
            allocator.resize_pool("flat", 4)

    def test_resize_to_nonpositive_cap_raises(self):
        allocator, pool = make_allocator()
        with pytest.raises(ValueError, match="max_frames"):
            allocator.resize_pool("cc:test", 0)
        assert pool.max_frames is None  # state untouched on failure

    def test_retune_validates_terms(self):
        allocator, _ = make_allocator()
        with pytest.raises(ValueError, match="weight"):
            allocator.retune("cc:test", weight=0.0)
        with pytest.raises(ValueError, match="weight"):
            allocator.retune("cc:test", weight=float("inf"))
        assert allocator.retune("cc:test", weight=3.0) == 3.0


class TestShrinkMechanics:
    def test_shrink_stops_when_the_pool_refuses(self):
        """A pool may renege (e.g. unsealed tail frame): the cap stays,
        growth is bounded, and the return value reports what actually
        came back."""
        allocator, pool = make_allocator(nframes=10, refuse_after=3)
        released = allocator.resize_pool("cc:test", 2)
        assert released == 3
        assert pool.nframes == 7  # still over cap, legitimately
        assert pool.max_frames == 2

    def test_shrink_releases_exactly_down_to_the_cap(self):
        allocator, pool = make_allocator(nframes=10)
        released = allocator.resize_pool("cc:test", 4)
        assert released == 6
        assert pool.nframes == 4

    def test_growing_the_cap_releases_nothing(self):
        allocator, pool = make_allocator(nframes=5, max_frames=8)
        assert allocator.resize_pool("cc:test", 16) == 0
        assert pool.nframes == 5
        assert pool.max_frames == 16
