"""The Mach-style external-pager architecture.

The pinned digests at the bottom play the role of
tests/sim/test_golden_digests.py and ``GOLDEN_TWO_TIER`` for this
architecture: they freeze the complete ``RunResult.as_dict()`` of drained
external-pager runs, so the pager's pageout/pagein/tick/flush cannot
drift from the in-kernel VM's use of the same tier chain unnoticed.  A
mismatch means behaviour moved; fix the change, do not refresh the
digest (unless the PR's point is a deliberate semantics change).
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.faults.plan import FaultPlan
from repro.mem.page import PageId, mbytes
from repro.pager.interface import PagerError
from repro.sim.costs import IPC_ROUNDTRIP_S
from repro.sim.engine import SimulationEngine
from repro.sim.machine import Machine, MachineConfig
from repro.tiers.spec import parse_tier_specs
from repro.vm.faults import VmConfigurationError
from repro.workloads import SyntheticWorkload, Thrasher, catalog

PLAN_DIR = Path(__file__).parents[2] / "experiments" / "fault_plans"

#: SHA-256 of canonical JSON of RunResult.as_dict() for drained
#: (``drain=True``, so ``flush`` runs) external-pager runs, captured
#: immediately before the pager moved onto the tier chain's verbs.
#: Key: (workload, scale, MachineConfig overrides, fault plan).
GOLDEN_EXTERNAL = {
    ("thrasher", 0.12, "", None):
        "2c2eb9fba65e34a0d9bb53be969985f109b93fcfc956cc23379954ec9d00eb40",
    ("gold-warm", 0.12, "", None):
        "f79f46ca49d4a9bb3bbf79353cc91864f90638905af4c073aacdcaf82b2ed047",
    ("compare", 0.12, "", None):
        "fb64250c45db0508aeb7fe75ba3d452b72210c794bd681d42862629fcda3b837",
    ("sort-random", 0.12, "", None):
        "bb6067c163233f4808b52bbbcaaef13da2b96ec6b1bab9c0d8bb4bf46f65ede2",
    ("thrasher", 0.12, "two-tier", None):
        "2d921dd3e30c6fa759d107cb64f4bbf290d94b9adb0beda779ce14fe51927209",
    ("compare", 0.12, "adaptive", None):
        "b56e1635df853a7335b79bf5ce3eb626b5239da31646b3acd5c2d4dd9bba61c8",
    ("sort-random", 0.12, "gate", None):
        "7953c745252fe57ebe7a000d21f4d11223fc296ca0013408745bcb51c87072c7",
    ("thrasher", 0.12, "lfs", None):
        "0a4a4d0cbd09ec4ecf50f9dec47a9ee44cb8ebb1f8fe800d9a62b2ede494f54d",
    ("thrasher", 0.06, "", "compressor-crash"):
        "57cd2bf36a09da0f7d80bd9905a9305d9a5faa3dd1af63164e66d4b7da826412",
    ("compare", 0.06, "", "compressor-crash"):
        "6f7d88b185c6e698a1efbf8377146292075282de6e95326f1f04196da0c51cae",
    ("thrasher", 0.06, "", "corrupt-fragments"):
        "0426d2bc43938a738bf0a369a3a97c62bc9443ff4c44a94e18f49cc275f9a441",
    ("thrasher", 0.06, "", "disk-flaky"):
        "4bfcdb8f7313bffd2e1b7e0352b391e32063eec2b9d327ff8f7c0e31e7e20708",
    ("compare", 0.06, "", "disk-flaky"):
        "ee586d26468afa8ffb33a58a8be449fcc2ea8eeac91ede79c98c210a086fe5c8",
}

_OVERRIDES = {
    "": {},
    "two-tier": {"tiers": parse_tier_specs("two-tier")},
    "adaptive": {"compressor": "adaptive"},
    "gate": {"adaptive_gate": True},
    "lfs": {"store": "lfs"},
}


def run_external(name, scale, variant="", plan=None):
    """One drained external-pager run at the bench_sim geometry."""
    workload = catalog.build(name, scale)
    config = MachineConfig(
        memory_bytes=mbytes(6 * scale),
        vm_architecture="external-pager",
        fault_plan=(
            None if plan is None
            else FaultPlan.from_json(PLAN_DIR / f"{plan}.json")
        ),
        **_OVERRIDES[variant],
    )
    machine = Machine(config, workload.build())
    return SimulationEngine(machine).run(workload.references(), drain=True)


def make_machine(compression_cache, memory_mb=0.5, space_mb=1.2,
                 paranoid=False, cycles=3):
    workload = Thrasher(mbytes(space_mb), cycles=cycles, write=True)
    machine = Machine(
        MachineConfig(
            memory_bytes=mbytes(memory_mb),
            compression_cache=compression_cache,
            vm_architecture="external-pager",
            paranoid=paranoid,
        ),
        workload.build(),
    )
    return workload, machine


class TestDefaultPager:
    def test_round_trips_pages(self):
        workload, machine = make_machine(False, paranoid=True)
        result = SimulationEngine(machine).run(workload.references())
        assert result.metrics_snapshot["faults"]["total"] > 0
        assert machine.pager is not None
        # paranoid mode verified every pagein against the true contents

    def test_pagein_unknown_page_raises(self):
        _, machine = make_machine(False)
        with pytest.raises(PagerError):
            machine.pager.pagein(PageId(0, 999))

    def test_clean_pageouts_free(self):
        workload, machine = make_machine(False, space_mb=1.0, cycles=4)
        result = SimulationEngine(machine).run(workload.references())
        # Read-write thrasher: every eviction dirty, so writes dominate;
        # with a read-only workload clean drops appear.
        ro = Thrasher(mbytes(1.0), cycles=4, write=False)
        machine_ro = Machine(
            MachineConfig(memory_bytes=mbytes(0.5),
                          compression_cache=False,
                          vm_architecture="external-pager"),
            ro.build(),
        )
        result_ro = SimulationEngine(machine_ro).run(ro.references())
        assert result_ro.metrics_snapshot["evictions"]["clean_drops"] > 0


class TestCompressionPager:
    def test_round_trips_pages(self):
        workload, machine = make_machine(True, paranoid=True)
        result = SimulationEngine(machine).run(workload.references())
        assert result.metrics_snapshot["faults"]["total"] > 0
        assert machine.pager.stats.pages_compressed > 0

    def test_cache_absorbs_io(self):
        workload, machine = make_machine(True, space_mb=1.0)
        SimulationEngine(machine).run(workload.references())
        # The compressed working set fits: the disk stays nearly idle
        # after the first-cycle write-out is batched by the cleaner.
        assert machine.ccache.compressed_pages > 0

    def test_uncompressible_pages_fall_through_to_swap(self):
        workload = SyntheticWorkload(
            mbytes(1.2), references=4000, compressible_fraction=0.0,
            hot_probability=0.3, write_fraction=0.5, seed=8,
        )
        machine = Machine(
            MachineConfig(memory_bytes=mbytes(0.5),
                          compression_cache=True,
                          vm_architecture="external-pager"),
            workload.build(),
        )
        SimulationEngine(machine).run(workload.references())
        assert machine.swap.counters.pages_out > 0
        assert machine.pager.stats.pages_uncompressible > 0

    def test_drain_flushes_pager(self):
        workload, machine = make_machine(True)
        engine = SimulationEngine(machine)
        engine.run(workload.references(), drain=True)
        assert machine.ccache.dirty_pages() == 0


class TestIpcTax:
    def test_crossings_charged(self):
        workload, machine = make_machine(True)
        result = SimulationEngine(machine).run(workload.references())
        assert machine.vm.pager_crossings > 0
        # Every crossing charged at least the IPC round trip.
        assert result.time_breakdown["fault-trap"] >= (
            machine.vm.pager_crossings * IPC_ROUNDTRIP_S
        )

    def test_ipc_tax_on_identical_policy(self):
        """Plain swap behind the pager interface versus in-kernel plain
        swap: byte-identical policy, so the external version is slower
        by exactly the per-crossing overhead."""
        def run(architecture):
            workload = Thrasher(mbytes(1.2), cycles=3, write=True)
            machine = Machine(
                MachineConfig(memory_bytes=mbytes(0.5),
                              compression_cache=False,
                              vm_architecture=architecture),
                workload.build(),
            )
            result = SimulationEngine(machine).run(workload.references())
            return result, machine

        in_kernel, _ = run("monolithic")
        external, machine = run("external-pager")
        assert external.elapsed_seconds > in_kernel.elapsed_seconds
        tax = (
            machine.vm.pager_crossings
            * (IPC_ROUNDTRIP_S + machine.config.costs.copy_seconds(4096))
        )
        assert external.elapsed_seconds == pytest.approx(
            in_kernel.elapsed_seconds + tax, rel=0.02
        )

    def test_external_cache_still_beats_external_swap(self):
        """The architecture tax doesn't erase the compression win."""
        def run(compression_cache):
            workload, machine = make_machine(compression_cache)
            return SimulationEngine(machine).run(
                workload.references()
            ).elapsed_seconds

        assert run(True) < run(False)


class TestConfiguration:
    def test_unknown_architecture_rejected(self):
        workload = Thrasher(mbytes(0.5))
        with pytest.raises(VmConfigurationError):
            Machine(
                MachineConfig(memory_bytes=mbytes(0.5),
                              vm_architecture="exokernel"),
                workload.build(),
            )

    def test_monolithic_has_no_pager(self):
        workload = Thrasher(mbytes(0.5))
        machine = Machine(
            MachineConfig(memory_bytes=mbytes(0.5)), workload.build()
        )
        assert machine.pager is None

    def test_compression_pager_cannot_be_built_without_a_frame_pool(self):
        """``CompressionPager(frames=None)`` once paced every cleaner as
        if no frame were free; the chain now reads the pool its caches
        draw from, so there is no such argument to leave out."""
        from repro.pager.compression import CompressionPager

        _, machine = make_machine(True)
        with pytest.raises(TypeError, match="frames"):
            CompressionPager(machine.chain, machine.ledger, 4096,
                             frames=None)


class TestPagerFaultContext:
    def test_missing_fragment_surfaces_with_gc_context(self):
        """A vanished fragment becomes a PagerError naming the page and
        the store's GC generation (satellite of the typed-error work)."""
        _, machine = make_machine(True)
        pager = machine.pager
        page = PageId(0, 7)
        # Claim the store holds the page while it actually does not, the
        # shape of a fragment reclaimed between holds() and pagein().
        pager.fragstore.contains = lambda _pid: True
        with pytest.raises(PagerError, match=r"fragment missing"):
            pager.pagein(page)

    def test_chaos_run_external_pager(self):
        """The external-pager architecture survives a fault plan too."""
        from repro.faults.plan import FaultPlan

        plan = FaultPlan.from_dict({
            "seed": 5,
            "device": {"read_error_rate": 0.02, "write_error_rate": 0.02,
                       "latency_spike_rate": 0.02,
                       "latency_spike_ms": 10.0},
            "fragments": {"corrupt_read_rate": 0.03},
        })
        workload = Thrasher(mbytes(1.2), cycles=3, write=True)
        machine = Machine(
            MachineConfig(
                memory_bytes=mbytes(0.5),
                vm_architecture="external-pager",
                fault_plan=plan,
                paranoid=True,
            ),
            workload.build(),
        )
        result = SimulationEngine(machine).run(workload.references())
        assert result.fault_counters is not None
        assert result.fault_counters["injected_faults"] > 0


class TestExternalPagerGoldenDigests:
    @pytest.mark.parametrize(
        "case", sorted(GOLDEN_EXTERNAL, key=repr),
        ids=lambda case: "-".join(str(part) for part in case if part),
    )
    def test_external_pager_digest_pinned(self, case):
        blob = json.dumps(
            run_external(*case).as_dict(),
            sort_keys=True, separators=(",", ":"),
        ).encode()
        assert hashlib.sha256(blob).hexdigest() == GOLDEN_EXTERNAL[case], (
            f"{case}: external-pager simulation output diverged from the "
            "pinned behaviour"
        )

    def test_unrecoverable_fragment_is_a_pager_error(self):
        """The pager holds the only copy of its pages, so a fragment the
        retries cannot recover is a hard fault by design (the in-kernel
        VM falls back to the backstop instead)."""
        with pytest.raises(PagerError, match="failed after retries"):
            run_external("compare", 0.06, plan="corrupt-fragments")
