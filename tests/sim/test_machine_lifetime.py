"""A dead machine gives its memory back at once.

The simulator's host footprint is set by how soon a finished run's
address space, cache payloads and store are freed.  ``Machine`` wires
its parts into reference cycles (the allocator holds the pools, the
pools call the allocator back; the coldest cache calls the VM back; ...)
and undoes that wiring when it dies (``repro.sim.machine._unwire``), and
no workload's content factory holds the workload, so dropping the last
reference frees everything by reference count — no generation-2
collection needed.

These tests run with the cyclic collector *off*: for every catalogue
workload on every kind of machine, after the engine, machine and
workload are dropped the address space is already gone and a full
collection finds nothing of ours left to free.  A new upward edge (a
bound method or closure stored on a part that points back at something
holding it) that ``_unwire`` does not clear fails here; the last test
plants one to show it.
"""

from __future__ import annotations

import gc
import weakref
from collections import Counter
from itertools import islice
from typing import Callable, Dict, Optional, Tuple

import pytest

from repro.control.controller import ControlConfig
from repro.faults.plan import (
    CompressorFaultConfig,
    DeviceFaultConfig,
    FaultPlan,
    FragmentFaultConfig,
)
from repro.mem.frames import OutOfFramesError
from repro.mem.page import mbytes
from repro.sim.engine import SimulationEngine
from repro.sim.machine import Machine, MachineConfig
from repro.tiers.spec import parse_tier_specs
from repro.workloads import catalog

SCALE = 0.05
REFERENCES = 300

_ENABLED_PLAN = FaultPlan(
    seed=7,
    device=DeviceFaultConfig(read_error_rate=0.02, write_error_rate=0.02,
                             latency_spike_rate=0.05, latency_spike_ms=5.0),
    fragments=FragmentFaultConfig(corrupt_read_rate=0.02),
    compressor=CompressorFaultConfig(crash_rate=0.02, expand_rate=0.02),
)

#: Every way ``Machine.__init__`` wires its parts differently.
VARIANTS: Dict[str, Dict[str, object]] = {
    "default": {},
    "two-tier": {"tiers": parse_tier_specs("two-tier")},
    "adaptive": {"compressor": "adaptive"},
    "lfs": {"store": "lfs"},
    "control": {"control": ControlConfig()},
    "external-pager": {"vm_architecture": "external-pager"},
    "no-ccache": {"compression_cache": False},
    "fault-plan": {"fault_plan": _ENABLED_PLAN},
}

Wire = Optional[Callable[[Machine], None]]


def _run_and_drop(spec: dict, variant: str, wire: Wire) -> weakref.ref:
    """One short run; every local dies with this frame."""
    workload = catalog.from_spec(spec)
    space = workload.build()
    config = MachineConfig(memory_bytes=mbytes(6 * SCALE)).variant(
        **VARIANTS[variant])
    machine = Machine(config, space)
    if wire is not None:
        wire(machine)
    engine = SimulationEngine(machine)
    result = engine.run(islice(workload.references(), REFERENCES))
    assert result.metrics_snapshot["faults"]["total"] > 0
    return weakref.ref(space)


def left_behind(spec: dict, variant: str,
                wire: Wire = None) -> Tuple[bool, Counter]:
    """Whether the address space outlived its run, and the ``repro.``
    objects only the cyclic collector could free, by type."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        space = _run_and_drop(spec, variant, wire)
        survived = space() is not None
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            gc.collect()
            ours = Counter(
                f"{type(obj).__module__}.{type(obj).__qualname__}"
                for obj in gc.garbage
                if type(obj).__module__.startswith("repro.")
            )
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
    finally:
        if was_enabled:
            gc.enable()
    return survived, ours


@pytest.mark.parametrize("variant", list(VARIANTS))
@pytest.mark.parametrize("name", list(catalog.CATALOG))
def test_dropped_run_is_freed_without_the_collector(name, variant):
    survived, ours = left_behind(catalog.spec(name, SCALE), variant)
    assert not survived, "the address space waited for a collection"
    assert not ours, f"objects in reference cycles: {dict(ours)}"


def test_real_dp_compare_is_freed_too():
    # The one content factory no catalogue entry selects.
    survived, ours = left_behind(
        catalog.spec("compare", SCALE, real_dp=True), "default")
    assert not survived and not ours, dict(ours)


def test_a_part_that_outlives_its_machine_fails_loudly():
    workload = catalog.build("thrasher", SCALE)
    config = MachineConfig(memory_bytes=mbytes(6 * SCALE))
    vm = Machine(config, workload.build()).vm
    with pytest.raises(OutOfFramesError, match="machine was released"):
        for ref in workload.references():
            vm.touch(ref.page_id, ref.write)
    # A cache keeps its frame provider, so it fails the same way rather
    # than quietly evicting from itself.
    ccache = Machine(config, workload.build()).ccache
    with pytest.raises(OutOfFramesError, match="machine was released"):
        for ref in workload.references():
            ccache.insert(ref.page_id, bytes(2048), dirty=True, now=0.0)


def test_a_new_upward_edge_is_caught():
    """The frame pool sits under everything; a callback on it that
    reaches the VM is exactly the kind of edge ``_unwire`` exists for."""
    def wire(machine: Machine) -> None:
        machine.frames.on_pressure = machine.vm.shrink_one

    survived, ours = left_behind(
        catalog.spec("thrasher", SCALE), "default", wire)
    assert survived
    assert ours["repro.mem.segment.AddressSpace"] == 1
    assert ours["repro.vm.compressed.CompressedVM"] == 1
