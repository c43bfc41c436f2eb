"""Chaos integration: whole workloads survive standard fault plans.

Every run uses ``paranoid=True``, so each decompressed page is verified
against the simulator's ground-truth content — completion of a paranoid
run IS the integrity assertion: no injected fault ever surfaced corrupt
bytes to the VM.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.faults.plan import FaultPlan
from repro.mem.page import mbytes
from repro.pager.interface import PagerError
from repro.sim.engine import run_workload
from repro.sim.machine import Machine, MachineConfig
from repro.tiers.spec import parse_tier_specs
from repro.workloads import CompareWorkload, Thrasher

PLAN_DIR = Path(__file__).parents[2] / "experiments" / "fault_plans"

SCALE = 0.05


def chaos_run(workload_factory, plan, drain=True):
    workload = workload_factory()
    machine = Machine(
        MachineConfig(memory_bytes=mbytes(6 * SCALE), fault_plan=plan,
                      paranoid=True),
        workload.build(),
    )
    return run_workload(machine, workload.references(), drain=drain)


def compare_factory():
    return CompareWorkload(mbytes(24 * SCALE), round_trips=2)


def thrasher_factory():
    memory = mbytes(6 * SCALE)
    return Thrasher(int(memory * 2.5), cycles=3, write=True)


def digest(result):
    canonical = json.dumps(result.as_dict(), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


class TestChaosMatrix:
    @pytest.mark.parametrize("plan_name", [
        "disk-flaky", "corrupt-fragments", "compressor-crash",
    ])
    @pytest.mark.parametrize("factory", [
        compare_factory, thrasher_factory,
    ], ids=["compare", "thrasher"])
    def test_completes_with_integrity(self, plan_name, factory):
        plan = FaultPlan.from_json(PLAN_DIR / f"{plan_name}.json")
        result = chaos_run(factory, plan)
        # Paranoid mode verified every decompression; reaching here means
        # page contents stayed correct throughout.
        assert result.metrics_snapshot["faults"]["total"] > 0
        assert result.fault_counters is not None

    def test_disk_flaky_injects_and_recovers(self):
        plan = FaultPlan.from_json(PLAN_DIR / "disk-flaky.json")
        counters = chaos_run(compare_factory, plan).fault_counters
        assert counters["injected_faults"] > 0
        assert counters["device_read_errors"] > 0
        assert counters["retries"] > 0
        assert counters["recovered_operations"] > 0
        assert counters["retry_backoff_seconds"] > 0

    def test_corrupt_fragments_detected_by_crc(self):
        plan = FaultPlan.from_json(PLAN_DIR / "corrupt-fragments.json")
        counters = chaos_run(compare_factory, plan).fault_counters
        assert counters["fragment_corruptions"] > 0
        assert counters["crc_checks"] > 0
        assert counters["crc_failures"] > 0
        # Transient corruption recovers by re-read; sticky corruption
        # falls through to the authoritative copy.
        assert counters["recovered_operations"] > 0

    def test_compressor_crash_degrades_gracefully(self):
        plan = FaultPlan.from_json(PLAN_DIR / "compressor-crash.json")
        counters = chaos_run(thrasher_factory, plan).fault_counters
        assert counters["compressor_crashes"] > 0
        assert counters["compressor_expansions"] > 0
        assert counters["degradation_entries"] > 0
        assert counters["bypassed_evictions"] > 0

    def test_same_seed_same_schedule_same_digest(self):
        plan = FaultPlan.from_json(PLAN_DIR / "corrupt-fragments.json")
        first = chaos_run(compare_factory, plan)
        second = chaos_run(compare_factory, plan)
        assert digest(first) == digest(second)
        assert first.fault_counters == second.fault_counters

    def test_different_seed_different_schedule(self):
        base = FaultPlan.from_json(PLAN_DIR / "corrupt-fragments.json")
        doc = base.to_dict()
        doc["seed"] = base.seed + 1
        reseeded = FaultPlan.from_dict(doc)
        first = chaos_run(compare_factory, base)
        second = chaos_run(compare_factory, reseeded)
        assert first.fault_counters != second.fault_counters


#: What the grid varies besides architecture and cache: each is one
#: ``MachineConfig`` field away from the machine the goldens pin.
GRID_VARIANTS = {
    "default": {},
    "two-tier": {"tiers": parse_tier_specs("two-tier")},
    "adaptive": {"compressor": "adaptive"},
    "store-lfs": {"store": "lfs"},
    "fs-lfs": {"filesystem": "lfs"},
}

#: Variants that mean something without a compression cache.
GRID_CACHELESS = ("default", "fs-lfs")

GRID_CELLS = [
    (architecture, cache, variant)
    for architecture in ("monolithic", "external-pager")
    for cache in (True, False)
    for variant in (GRID_VARIANTS if cache else GRID_CACHELESS)
]

GRID_PLANS = ("disk-flaky", "corrupt-fragments", "compressor-crash")

GRID_WORKING_SETS_MB = (0.75, 1, 1.5, 2)


def grid_outcome(architecture, cache, variant, plan, working_set_mb,
                 paranoid):
    """Digest of a drained run, or the pager's typed refusal."""
    workload = Thrasher(mbytes(working_set_mb), cycles=3)
    machine = Machine(
        MachineConfig(
            memory_bytes=mbytes(0.5), compression_cache=cache,
            vm_architecture=architecture, fault_plan=plan,
            paranoid=paranoid, **GRID_VARIANTS[variant],
        ),
        workload.build(),
    )
    try:
        result = run_workload(machine, workload.references(), drain=True)
    except PagerError as exc:
        # A pager holds the only copy of its pages: a transfer that
        # fails for good is an error it must name, not hide.  The kernel
        # VMs have the backstop and may never give up.
        assert architecture == "external-pager", exc
        return f"PagerError: {exc}"
    machine.vm.check_invariants()
    assert machine.vm.resident_pages == 0
    return digest(result)


class TestChaosGrid:
    """Every paging configuration, not just the one the goldens pin,
    survives the standard plans at working sets on both sides of what
    the compressed memory holds: a run completes, or an external pager
    names the page it lost; any other exception fails the cell.

    The whole grid under ``paranoid`` takes 52 s a pass (the real kernel
    runs on every eviction), so each cell x plan picks one working set —
    rotating, so that every plan meets every working set in both
    architectures — to run again (same digest, or same error) and once
    more verifying every byte it brings back.
    """

    @pytest.mark.parametrize("plan_index", range(len(GRID_PLANS)),
                             ids=GRID_PLANS)
    @pytest.mark.parametrize("cell_index", range(len(GRID_CELLS)), ids=[
        f"{architecture}-{'cache' if cache else 'nocache'}-{variant}"
        for architecture, cache, variant in GRID_CELLS
    ])
    def test_completes_or_names_the_page(self, cell_index, plan_index):
        cell = GRID_CELLS[cell_index]
        plan = FaultPlan.from_json(
            PLAN_DIR / f"{GRID_PLANS[plan_index]}.json"
        )
        verified = (cell_index + plan_index) % len(GRID_WORKING_SETS_MB)
        for ws_index, working_set_mb in enumerate(GRID_WORKING_SETS_MB):
            outcome = grid_outcome(*cell, plan, working_set_mb, False)
            if ws_index == verified:
                assert outcome == grid_outcome(
                    *cell, plan, working_set_mb, False
                ), working_set_mb
                grid_outcome(*cell, plan, working_set_mb, paranoid=True)


class TestZeroOverheadDefault:
    def test_no_plan_reports_no_resilience_key(self):
        result = chaos_run(thrasher_factory, plan=None)
        assert result.fault_counters is None
        assert "resilience" not in result.as_dict()

    def test_inert_plan_counts_nothing_but_checks(self):
        result = chaos_run(thrasher_factory, FaultPlan())
        counters = result.fault_counters
        assert counters["injected_faults"] == 0
        assert counters["crc_failures"] == 0
        # The always-on CRC path is the only work the layer does.
        assert counters["crc_checks"] >= 0

    def test_inert_plan_matches_no_plan_simulation(self):
        """An all-zero-rate plan must not perturb simulated results."""
        plain = chaos_run(thrasher_factory, plan=None)
        inert = chaos_run(thrasher_factory, FaultPlan())
        plain_dict = plain.as_dict()
        inert_dict = inert.as_dict()
        inert_dict.pop("resilience")
        assert plain_dict == inert_dict
