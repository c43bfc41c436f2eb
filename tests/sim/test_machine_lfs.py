"""Machine-level properties of the log-structured backing store.

The LFS is selectable via ``MachineConfig(store="lfs")`` and must be
(a) deterministic run-to-run, (b) digest-equal under crash/recovery at
every kill site — the whole-machine version of the store-level property
in ``tests/storage/test_logstore_crash.py`` — and (c) genuinely driven
by the benchmark workloads (pages appended, segments cleaned).
"""

from __future__ import annotations

import pytest

from repro.mem.page import mbytes
from repro.sim.engine import SimulationEngine
from repro.sim.machine import Machine, MachineConfig
from repro.storage.logstore import LogStoreConfig, LogStructuredStore
from repro.workloads import catalog

SCALE = 0.12

#: Small segments so the thrasher working set spans many segments and
#: the cleaner actually runs inside a tier-1-sized simulation.
STORE = dict(segment_bytes=8192, total_segments=512)


def run_machine(workload_name: str, kill=None):
    workload = catalog.build(workload_name, SCALE)
    config = MachineConfig(
        memory_bytes=mbytes(6 * SCALE),
        store="lfs",
        log_store=LogStoreConfig(sync_appends=True, kill=kill, **STORE),
    )
    machine = Machine(config, workload.build())
    result = SimulationEngine(machine).run(workload.references())
    return machine, result


def digest(result) -> str:
    return result.digest()


@pytest.fixture(scope="module")
def thrasher_reference():
    machine, result = run_machine("thrasher")
    return machine, digest(result)


def test_lfs_machine_uses_log_store(thrasher_reference):
    machine, _ = thrasher_reference
    store = machine.fragstore
    assert isinstance(store, LogStructuredStore)
    assert store.counters.pages_put > 0
    assert store.counters.segments_cleaned > 0, (
        "thrasher at this scale must exercise the cleaner"
    )
    assert store.counters.checkpoints_written > 0


def test_lfs_machine_is_deterministic(thrasher_reference):
    _, ref = thrasher_reference
    _, result = run_machine("thrasher")
    assert digest(result) == ref


@pytest.mark.parametrize("kill", [
    "append:5:0.5",
    "clean:1:0.5",
    "checkpoint:1:0.5",
])
def test_killed_run_digest_equals_uninterrupted(kill, thrasher_reference):
    _, ref = thrasher_reference
    machine, result = run_machine("thrasher", kill=kill)
    store = machine.fragstore
    assert store._kill is None, f"{kill} never fired at this scale"
    assert store.recovery.recoveries >= 1
    assert digest(result) == ref, f"digest diverged after {kill}"


def test_lfs_differs_from_fragment_store_digest(thrasher_reference):
    # The two stores have different timing/layout behaviour; equal
    # digests would suggest the store switch is not actually wired in.
    _, lfs_digest = thrasher_reference
    workload = catalog.build("thrasher", SCALE)
    config = MachineConfig(memory_bytes=mbytes(6 * SCALE))
    machine = Machine(config, workload.build())
    result = SimulationEngine(machine).run(workload.references())
    assert digest(result) != lfs_digest
