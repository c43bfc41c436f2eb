"""Stack distances, miss-ratio curves, working sets."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.model.locality import (
    INFINITE,
    MissRatioCurve,
    predicted_compression_benefit,
    stack_distances,
    store_distances,
    working_set_sizes,
)


class TestStackDistances:
    def test_first_touches_infinite(self):
        assert stack_distances("abc") == [INFINITE] * 3

    def test_immediate_reuse_is_one(self):
        assert stack_distances("aa")[1] == 1

    def test_textbook_example(self):
        # a b c b a: b at depth 2, a at depth 3.
        assert stack_distances("abcba") == [
            INFINITE, INFINITE, INFINITE, 2, 3,
        ]

    def test_cyclic_pattern(self):
        # Cycling through N pages: every reuse at distance N.
        refs = list("abcd") * 3
        distances = stack_distances(refs)
        assert all(d == 4 for d in distances[4:])


class TestStoreDistances:
    """A key-value store's reads: a missed get stores nothing, a delete
    frees a slot and pulls nothing back."""

    @staticmethod
    def ops(text):
        codes = {"p": "put", "g": "get", "d": "delete"}
        return [(codes[text[i]], text[i + 1]) for i in range(0, len(text), 2)]

    def test_a_read_renews_its_item_where_it_is(self):
        # b at depth 3 misses in two slots and is not stored there, so a
        # second read finds it at 3 again (move-to-front would say 1).
        refs = self.ops("pbpapcgbgb")
        assert store_distances(refs) == [3, 3]
        assert stack_distances([item for _, item in refs])[-2:] == [3, 1]
        assert store_distances(self.ops("gapbpagb")) == [INFINITE, 2]

    def test_a_renewed_item_outlives_an_older_one(self):
        # In three slots the read keeps b, and the put of d evicts a.
        assert store_distances(self.ops("pbpapcgbpdgb")) == [3, 3]

    def test_a_delete_is_a_hole_not_a_shift(self):
        # b deleted: c stays at depth 3 (evicted from two slots) and the
        # put of d fills the hole instead of pushing c down.
        refs = self.ops("pcpbpadbgcpdgc")
        assert store_distances(refs) == [3, 3]
        assert store_distances(self.ops("padagagb")) == [INFINITE, INFINITE]

    def test_curve_from_distances(self):
        curve = MissRatioCurve.from_distances(
            store_distances(self.ops("papbgagbgc")))
        assert (curve.references, curve.compulsory) == (3, 1)
        assert curve.faults_at(1) == 2 and curve.faults_at(2) == 1


class TestMissRatioCurve:
    def test_lru_inclusion(self):
        """More memory never means more faults (LRU's stack property)."""
        refs = [hash(f"p{i * 7 % 13}") for i in range(200)]
        curve = MissRatioCurve.from_references(refs)
        faults = [curve.faults_at(size) for size in range(0, 15)]
        assert faults == sorted(faults, reverse=True)

    def test_compulsory_floor(self):
        refs = list("abcd") * 5
        curve = MissRatioCurve.from_references(refs)
        assert curve.faults_at(4) == 4          # only first touches
        assert curve.faults_at(100) == 4

    def test_cyclic_cliff(self):
        """The thrasher's regime: one frame short of the cycle means a
        fault on every access."""
        refs = list(range(10)) * 4
        curve = MissRatioCurve.from_references(refs)
        assert curve.faults_at(9) == 40   # LRU worst case
        assert curve.faults_at(10) == 10  # everything fits

    def test_knee_detection(self):
        refs = list(range(8)) * 10
        curve = MissRatioCurve.from_references(refs)
        assert curve.knee() == 8

    def test_curve_samples(self):
        refs = list("ab") * 4
        curve = MissRatioCurve.from_references(refs)
        assert curve.curve([0, 2]) == [(0, 8), (2, 2)]

    def test_negative_size_rejected(self):
        curve = MissRatioCurve.from_references("ab")
        with pytest.raises(ValueError):
            curve.faults_at(-1)


class TestAgainstSimulator:
    def test_predicts_standard_vm_exactly(self):
        """Mattson's algorithm must agree with the simulator's true-LRU
        StandardVM fault-for-fault."""
        from repro.mem.page import mbytes
        from repro.sim.engine import SimulationEngine
        from repro.sim.machine import Machine, MachineConfig
        from repro.workloads import SyntheticWorkload

        workload = SyntheticWorkload(
            mbytes(1), references=600, seed=13, write_fraction=0.0,
            hot_probability=0.6,
        )
        workload.build()
        refs = [ref.page_id for ref in workload.references()]
        curve = MissRatioCurve.from_references(refs)

        machine = Machine(
            MachineConfig(memory_bytes=mbytes(0.25),
                          compression_cache=False),
            workload.build(),
        )
        result = SimulationEngine(machine).run(workload.references())
        predicted = curve.faults_at(machine.user_frames)
        assert result.metrics_snapshot["faults"]["total"] == predicted


class TestWorkingSet:
    def test_window_bounds_size(self):
        refs = list("abcabc")
        sizes = working_set_sizes(refs, tau=3)
        assert sizes == [1, 2, 3, 3, 3, 3]

    def test_single_page_workload(self):
        assert working_set_sizes(list("aaaa"), tau=2) == [1, 1, 1, 1]

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            working_set_sizes(list("ab"), tau=0)

    @settings(max_examples=50, deadline=None)
    @given(
        refs=st.lists(st.integers(0, 10), min_size=1, max_size=100),
        tau=st.integers(1, 20),
    )
    def test_size_never_exceeds_window_or_universe(self, refs, tau):
        sizes = working_set_sizes(refs, tau)
        assert len(sizes) == len(refs)
        assert all(1 <= s <= min(tau, len(set(refs))) for s in sizes)


class TestPredictedBenefit:
    def test_compression_extends_capacity(self):
        refs = list(range(20)) * 3
        curve = MissRatioCurve.from_references(refs)
        std, cc = predicted_compression_benefit(
            curve, frames=10, compression_ratio=0.25
        )
        assert std == 60      # cycle > memory: every access faults
        assert cc == 20       # fits compressed: compulsory only

    def test_poor_ratio_barely_helps(self):
        refs = list(range(20)) * 3
        curve = MissRatioCurve.from_references(refs)
        std, cc = predicted_compression_benefit(
            curve, frames=10, compression_ratio=0.95
        )
        assert cc == std  # effective capacity still below the cycle

    def test_invalid_ratio(self):
        curve = MissRatioCurve.from_references("ab")
        with pytest.raises(ValueError):
            predicted_compression_benefit(curve, 4, 0.0)


@settings(max_examples=60, deadline=None)
@given(refs=st.lists(st.integers(0, 15), min_size=1, max_size=150))
def test_distance_histogram_accounts_for_everything(refs):
    curve = MissRatioCurve.from_references(refs)
    assert curve.compulsory == len(set(refs))
    assert curve.compulsory + sum(curve.histogram.values()) == len(refs)
    # Infinite memory: only compulsory misses remain.
    assert curve.faults_at(10 ** 6) == curve.compulsory
