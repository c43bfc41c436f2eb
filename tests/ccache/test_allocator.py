"""Three-way allocator: age comparison, biases, victim selection."""

from typing import Optional

import pytest

from repro.ccache.allocator import (
    AllocationBiases,
    ThreeWayAllocator,
    TieredAllocator,
)
from repro.mem.frames import FrameOwner, FramePool, OutOfFramesError


class FakePool:
    """A MemoryPool stub holding frames it can give back."""

    def __init__(self, frames: FramePool, owner: FrameOwner, age=None):
        self.frames = frames
        self.owner = owner
        self.age = age
        self.held = []
        self.shrinks = 0
        self.refuse = False

    def grab(self, n):
        for _ in range(n):
            self.held.append(self.frames.allocate(self.owner))

    def coldest_age(self, now: float) -> Optional[float]:
        if not self.held:
            return None
        return self.age

    def shrink_one(self) -> Optional[float]:
        if self.refuse or not self.held:
            return None
        self.frames.release(self.held.pop())
        self.shrinks += 1
        return 0.0


def make_world(nframes=4, biases=None):
    frames = FramePool(nframes)
    allocator = ThreeWayAllocator(frames, biases=biases)
    vm = FakePool(frames, FrameOwner.VM, age=10.0)
    cc = FakePool(frames, FrameOwner.COMPRESSION, age=10.0)
    fs = FakePool(frames, FrameOwner.FILE_CACHE, age=10.0)
    allocator.register(FrameOwner.VM, vm)
    allocator.register(FrameOwner.COMPRESSION, cc)
    allocator.register(FrameOwner.FILE_CACHE, fs)
    return frames, allocator, vm, cc, fs


class TestFreePath:
    def test_free_frame_allocated_directly(self):
        frames, allocator, vm, cc, fs = make_world()
        frame = allocator.obtain_frame(FrameOwner.VM)
        assert frames.owner_of(frame) == FrameOwner.VM
        assert vm.shrinks == cc.shrinks == fs.shrinks == 0


class TestVictimSelection:
    def test_oldest_pool_loses(self):
        frames, allocator, vm, cc, fs = make_world()
        vm.grab(2)
        cc.grab(1)
        fs.grab(1)
        vm.age, cc.age, fs.age = 100.0, 5.0, 5.0
        allocator = ThreeWayAllocator(
            frames,
            biases=AllocationBiases(0, 0, 0, 1.0, 1.0, 1.0),
        )
        allocator.register(FrameOwner.VM, vm)
        allocator.register(FrameOwner.COMPRESSION, cc)
        allocator.register(FrameOwner.FILE_CACHE, fs)
        allocator.obtain_frame(FrameOwner.COMPRESSION)
        assert vm.shrinks == 1

    def test_biases_order_default_preference(self):
        """Equal raw ages: file cache evicted before VM before cache."""
        frames, allocator, vm, cc, fs = make_world()
        vm.grab(2)
        cc.grab(1)
        fs.grab(1)
        allocator.obtain_frame(FrameOwner.VM)
        assert fs.shrinks == 1
        assert vm.shrinks == 0 and cc.shrinks == 0

    def test_bias_gap_protects_compressed_pages(self):
        """Compressed pages survive while raw-older by less than the gap.

        Default weights age VM pages several times faster than compressed
        pages: a compressed page substantially older than the LRU VM page
        is still retained (the paper's 'favor compressed pages over
        uncompressed pages')."""
        frames, allocator, vm, cc, fs = make_world()
        vm.grab(2)
        cc.grab(2)
        vm.age, cc.age = 10.0, 30.0  # cc older, but 30 < 10 * vm_weight
        allocator.obtain_frame(FrameOwner.VM)
        assert vm.shrinks == 1 and cc.shrinks == 0

    def test_bias_gap_is_finite(self):
        """Far-older compressed pages are still reclaimed eventually."""
        frames, allocator, vm, cc, fs = make_world()
        vm.grab(2)
        cc.grab(2)
        vm.age, cc.age = 10.0, 70.0  # 70 > 10 * vm_weight (6)
        allocator.obtain_frame(FrameOwner.VM)
        assert cc.shrinks == 1 and vm.shrinks == 0

    def test_zero_bias_degenerates_to_pure_lru(self):
        frames = FramePool(4)
        allocator = ThreeWayAllocator(
            frames,
            biases=AllocationBiases(0, 0, 0, 1.0, 1.0, 1.0),
        )
        vm = FakePool(frames, FrameOwner.VM, age=1.0)
        cc = FakePool(frames, FrameOwner.COMPRESSION, age=2.0)
        allocator.register(FrameOwner.VM, vm)
        allocator.register(FrameOwner.COMPRESSION, cc)
        vm.grab(2)
        cc.grab(2)
        allocator.obtain_frame(FrameOwner.VM)
        assert cc.shrinks == 1

    def test_empty_pools_skipped(self):
        frames, allocator, vm, cc, fs = make_world()
        vm.grab(4)  # others empty
        allocator.obtain_frame(FrameOwner.FILE_CACHE)
        assert vm.shrinks == 1

    def test_victims_counted(self):
        frames, allocator, vm, cc, fs = make_world()
        fs.grab(4)
        allocator.obtain_frame(FrameOwner.VM)
        assert allocator.counters.snapshot()["fs"] == 1


class TestRefusal:
    def test_refusing_pool_falls_through(self):
        frames, allocator, vm, cc, fs = make_world()
        fs.grab(2)
        vm.grab(2)
        fs.refuse = True  # would be preferred victim but refuses
        allocator.obtain_frame(FrameOwner.VM)
        assert vm.shrinks == 1

    def test_all_refuse_raises(self):
        frames, allocator, vm, cc, fs = make_world()
        vm.grab(4)
        vm.refuse = True
        with pytest.raises(OutOfFramesError):
            allocator.obtain_frame(FrameOwner.VM)

    def test_nothing_registered_raises(self):
        frames = FramePool(1)
        allocator = ThreeWayAllocator(frames)
        frames.allocate(FrameOwner.VM)  # exhaust directly
        with pytest.raises(OutOfFramesError):
            allocator.obtain_frame(FrameOwner.VM)


class TestReleasedPools:
    def test_released_allocator_says_its_machine_is_gone(self):
        frames, allocator, vm, cc, fs = make_world()
        vm.grab(4)
        allocator.release_pools()
        with pytest.raises(OutOfFramesError, match="machine was released"):
            allocator.obtain_frame(FrameOwner.VM)
        assert vm.shrinks == 0

    def test_released_allocator_still_hands_out_free_frames(self):
        frames, allocator, vm, cc, fs = make_world()
        allocator.release_pools()
        frame = allocator.obtain_frame(FrameOwner.VM)
        assert frames.owner_of(frame) == FrameOwner.VM

    def test_victim_labels_are_those_of_registration(self):
        frames, allocator, vm, cc, fs = make_world(nframes=3)
        cold = FakePool(frames, FrameOwner.COMPRESSION, age=100.0)
        allocator.register_pool("cc:cold", cold, weight=1.0, bias_s=0.0)
        vm.grab(1)
        fs.grab(1)
        cold.grab(1)
        cold.refuse = True  # oldest by far, reneges: the retry takes fs
        vm.held.append(allocator.obtain_frame(FrameOwner.VM))
        cold.refuse = False
        allocator.obtain_frame(FrameOwner.VM)
        assert list(allocator.counters.victims.items()) == [
            ("vm", 0), ("cc", 0), ("fs", 1), ("cc:cold", 1)]


class TestBiases:
    def test_terms_for(self):
        biases = AllocationBiases(30.0, 10.0, 0.0)
        assert biases.terms_for(FrameOwner.FILE_CACHE) == (12.0, 30.0)
        assert biases.terms_for(FrameOwner.VM) == (6.0, 10.0)
        assert biases.terms_for(FrameOwner.COMPRESSION) == (1.0, 0.0)


class TestBiasValidation:
    """Nonsense age terms fail at construction, not at victim time."""

    @pytest.mark.parametrize("weight", [0.0, -1.0, float("nan"),
                                        float("inf")])
    def test_bad_weights_rejected(self, weight):
        with pytest.raises(ValueError, match="weight"):
            AllocationBiases(vm_weight=weight)
        with pytest.raises(ValueError, match="weight"):
            AllocationBiases(file_cache_weight=weight)
        with pytest.raises(ValueError, match="weight"):
            AllocationBiases(ccache_weight=weight)

    @pytest.mark.parametrize("bias", [-0.001, float("nan"), float("inf")])
    def test_bad_biases_rejected(self, bias):
        with pytest.raises(ValueError, match="bias"):
            AllocationBiases(vm_bias_s=bias)

    def test_error_names_the_offending_pool(self):
        with pytest.raises(ValueError, match="file_cache"):
            AllocationBiases(file_cache_weight=-2.0)

    def test_zero_biases_valid(self):
        AllocationBiases(0.0, 0.0, 0.0)  # pure weighted LRU is fine


class TestRegisterPool:
    """Extra pools (the N-tier path) join with explicit age terms."""

    def test_explicit_terms_pool_competes(self):
        frames = FramePool(4)
        allocator = ThreeWayAllocator(frames)
        vm = FakePool(frames, FrameOwner.VM, age=10.0)
        l2 = FakePool(frames, FrameOwner.COMPRESSION, age=10.0)
        allocator.register(FrameOwner.VM, vm)
        # A huge weight makes the extra pool the preferred victim even
        # against the VM pool's default weight of 6.
        allocator.register_pool("cc:l2", l2, weight=100.0, bias_s=0.0)
        vm.grab(2)
        l2.grab(2)
        allocator.obtain_frame(FrameOwner.VM)
        assert l2.shrinks == 1 and vm.shrinks == 0
        assert allocator.counters.snapshot()["cc:l2"] == 1

    def test_explicit_terms_validated_at_registration(self):
        allocator = ThreeWayAllocator(FramePool(2))
        with pytest.raises(ValueError, match="weight"):
            allocator.register_pool("cc:l2", None, weight=-1.0)
        with pytest.raises(ValueError, match="bias"):
            allocator.register_pool("cc:l2", None, weight=1.0,
                                    bias_s=float("nan"))

    def test_policyless_registration_needs_terms(self):
        allocator = TieredAllocator(FramePool(2), policy=None)
        with pytest.raises(ValueError, match="trading policy"):
            allocator.register_pool("cc:l2", None)


class TestTerms:
    """One table: what registration and ``retune`` write is what
    ``_choose_victim`` reads."""

    def world(self, biases=None):
        frames = FramePool(6)
        allocator = ThreeWayAllocator(frames, biases=biases)
        vm = FakePool(frames, FrameOwner.VM, age=10.0)
        cc = FakePool(frames, FrameOwner.COMPRESSION, age=10.0)
        l2 = FakePool(frames, FrameOwner.COMPRESSION, age=10.0)
        allocator.register(FrameOwner.VM, vm)
        allocator.register(FrameOwner.COMPRESSION, cc)
        allocator.register_pool("cc:l2", l2, weight=3.0, bias_s=1.0)
        for pool in (vm, cc, l2):
            pool.grab(2)
        return allocator, {FrameOwner.VM: vm, FrameOwner.COMPRESSION: cc,
                           "cc:l2": l2}

    def victim(self, allocator, pools):
        """The key ``_choose_victim`` picks, checked against the terms."""
        key, pool = allocator._choose_victim()
        ages = {
            k: p.age * allocator._terms[k][0] + allocator._terms[k][1]
            for k, p in pools.items()
        }
        assert ages[key] == max(ages.values())
        assert pool is pools[key]
        return key

    def test_never_retuned_pools_read_their_policys_terms(self):
        biases = AllocationBiases(30.0, 10.0, 0.5, 12.0, 6.0, 1.0)
        allocator, pools = self.world(biases)
        assert allocator._terms == {
            FrameOwner.VM: (6.0, 10.0),
            FrameOwner.COMPRESSION: (1.0, 0.5),
            FrameOwner.FILE_CACHE: (12.0, 30.0),
            "cc:l2": (3.0, 1.0),
        }
        assert allocator.biases is biases
        assert self.victim(allocator, pools) == FrameOwner.VM

    def test_register_pool_without_terms_takes_the_policys(self):
        allocator, pools = self.world()
        allocator.register_pool("cc:l3", None)
        assert allocator._terms["cc:l3"] == \
            allocator.policy.terms_for("cc:l3")
        allocator.register_pool("cc:l3", None, weight=2.0)
        assert allocator._terms["cc:l3"] == (2.0, 0.0)

    def test_retune_replaces_the_entry_the_next_choice_reads(self):
        allocator, pools = self.world()
        assert self.victim(allocator, pools) == FrameOwner.VM
        assert allocator.retune("cc:l2", weight=50.0) == (50.0, 1.0)
        assert allocator._terms["cc:l2"] == (50.0, 1.0)
        assert self.victim(allocator, pools) == "cc:l2"
        # A pool that began on the policy keeps the other term.
        assert allocator.retune(FrameOwner.COMPRESSION, bias_s=9999.0) \
            == (1.0, 9999.0)
        assert self.victim(allocator, pools) == FrameOwner.COMPRESSION
        allocator.obtain_frame(FrameOwner.VM)
        assert pools[FrameOwner.COMPRESSION].shrinks == 1

    def test_a_rejected_retune_or_registration_leaves_the_table(self):
        allocator, pools = self.world()
        before = dict(allocator._terms)
        with pytest.raises(ValueError):
            allocator.retune("cc:l2", weight=0.0)
        with pytest.raises(ValueError):
            allocator.register_pool("cc:l4", None, weight=-1.0)
        assert allocator._terms == before
        with pytest.raises(AttributeError):  # the policy is not swapped
            allocator.biases = AllocationBiases()
