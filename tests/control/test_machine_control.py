"""Machine wiring for the control plane, and its digest discipline.

Two invariants matter here: with the controller *off* nothing about a
run changes (every pre-existing golden digest stays byte-identical,
because no ``control`` key is even present in the result), and with the
controller *on* the run is deterministic enough to pin its own digest.
"""

import hashlib
import json

import pytest

from repro.control.controller import TICK_COST_S, ControlConfig, ControlPlane
from repro.mem.page import mbytes
from repro.sim.engine import SimulationEngine
from repro.sim.machine import Machine, MachineConfig
from repro.tiers.spec import parse_tier_specs
from repro.vm.faults import VmConfigurationError
from repro.workloads import Thrasher

#: SHA-256 of canonical JSON of RunResult.as_dict() for the autotuned
#: two-tier thrasher below.  Unlike the controller-off goldens this one
#: includes the ``control`` counters; a mismatch means either the
#: simulation or the control policy changed behaviour.
GOLDEN_CONTROLLED_THRASHER = (
    "cee1e6859d018be154d9026d0a02e772e7f9f445fd6243ff93b8e957d90c0fd5"
)


def controlled_machine(scale=0.08, control=None, cycles=3, span=2,
                       **config_kwargs):
    memory = mbytes(6 * scale)
    workload = Thrasher(int(memory * span), cycles=cycles, write=True)
    config = MachineConfig(
        memory_bytes=memory,
        tiers=parse_tier_specs("two-tier"),
        control=control,
        **config_kwargs,
    )
    return Machine(config, workload.build()), workload


def small_space():
    return Thrasher(mbytes(0.25), cycles=1).build()


def run_digest(machine, workload):
    result = SimulationEngine(machine).run(workload.references())
    canonical = json.dumps(result.as_dict(), sort_keys=True,
                           separators=(",", ":"))
    return result, hashlib.sha256(canonical.encode()).hexdigest()


class TestWiring:
    def test_default_machine_has_no_control_machinery(self):
        config = MachineConfig(memory_bytes=mbytes(0.5))
        machine = Machine(config, small_space())
        assert machine.control is None
        assert machine.telemetry is None

    def test_explicit_tiers_build_telemetry_but_no_controller(self):
        machine, _ = controlled_machine(control=None)
        assert machine.control is None
        assert machine.telemetry is not None

    def test_control_config_builds_the_plane(self):
        machine, _ = controlled_machine(control=ControlConfig())
        assert isinstance(machine.control, ControlPlane)
        assert machine.telemetry is machine.control.telemetry
        for tier in machine.chain.tiers:
            assert tier.cache.hot_filter == machine.control.hot_filter

    def test_hotness_off_leaves_demotion_path_untouched(self):
        machine, _ = controlled_machine(
            control=ControlConfig(hotness=False)
        )
        assert machine.control.hotness is None
        for tier in machine.chain.tiers:
            assert tier.cache.hot_filter is None

    def test_control_requires_the_compression_cache(self):
        config = MachineConfig(
            memory_bytes=mbytes(0.5),
            compression_cache=False,
            control=ControlConfig(),
        )
        with pytest.raises(VmConfigurationError,
                           match="requires the compression cache"):
            Machine(config, small_space())

    def test_control_requires_the_monolithic_vm(self):
        config = MachineConfig(
            memory_bytes=mbytes(0.5),
            vm_architecture="external-pager",
            control=ControlConfig(),
        )
        with pytest.raises(VmConfigurationError,
                           match="monolithic VM architecture"):
            Machine(config, small_space())

    def test_baseline_variant_strips_the_controller(self):
        config = MachineConfig(memory_bytes=mbytes(0.5),
                               control=ControlConfig())
        baseline = config.baseline()
        assert baseline.control is None
        assert baseline.compression_cache is False

    def test_reset_measurement_rebinds_the_metrics(self):
        machine, workload = controlled_machine(control=ControlConfig())
        SimulationEngine(machine).run(workload.references())
        machine.reset_measurement()
        assert machine.control.metrics is machine.vm.metrics
        assert machine.control.metrics.faults.total == 0


class TestDigestDiscipline:
    def test_controller_off_reports_no_control_key(self):
        """The goldens' shield: with ``control=None`` the result dict is
        exactly what it was before the control plane existed."""
        machine, workload = controlled_machine(control=None)
        result = SimulationEngine(machine).run(workload.references())
        assert "control" not in result.as_dict()

    def test_controlled_run_is_deterministic_and_pinned(self):
        results = []
        digests = []
        for _ in range(2):
            machine, workload = controlled_machine(
                control=ControlConfig(seed=0), span=3
            )
            result, digest = run_digest(machine, workload)
            results.append(result)
            digests.append(digest)
        assert digests[0] == digests[1]
        assert digests[0] == GOLDEN_CONTROLLED_THRASHER
        control = results[0].as_dict()["control"]
        assert control["ticks"] > 0
        # The thrasher loops over three times memory: the miss stream
        # runs hot and the controller must actually act on it.
        assert control["actions"] > 0
        assert control["grows"] > 0

    def test_control_time_is_charged_to_its_own_category(self):
        machine, workload = controlled_machine(control=ControlConfig())
        result = SimulationEngine(machine).run(workload.references())
        ticks = result.as_dict()["control"]["ticks"]
        charged = result.time_breakdown.get("control", 0.0)
        assert charged == pytest.approx(ticks * TICK_COST_S)
