"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.mem.page import mbytes
from repro.sim.engine import SimulationEngine
from repro.sim.machine import Machine, MachineConfig

PAGE = 4096


@pytest.fixture
def rng():
    """Deterministic RNG per test."""
    return random.Random(0xC0FFEE)


@pytest.fixture
def reference_kernels(monkeypatch):
    """Every kernel made during the test runs the reference loops
    (:data:`repro.compression._reference.KERNELS`) where it would run
    the compiled library; the process-wide result caches are emptied
    before and after, so those loops really run and none of their
    results outlives the test."""
    from repro.compression import compiled
    from repro.compression._reference import KERNELS
    from repro.compression.sampler import clear_shared_results

    monkeypatch.setattr(compiled, "_COMPILED", [KERNELS])
    clear_shared_results()
    yield
    clear_shared_results()


def sample_pages(rng: random.Random) -> dict:
    """A spread of page contents across the compressibility spectrum."""
    return {
        "zeros": bytes(PAGE),
        "ones": b"\xff" * PAGE,
        "text": (b"the quick brown fox jumps over the lazy dog " * 100)[:PAGE],
        "random": bytes(rng.randrange(256) for _ in range(PAGE)),
        "tiled": (bytes(rng.randrange(256) for _ in range(512)) * 8)[:PAGE],
        "counter": b"".join(
            (i & 0xFFFF).to_bytes(4, "little") for i in range(PAGE // 4)
        ),
    }


def tiny_machine(compression_cache: bool = True, memory_mb: float = 1.0,
                 **overrides) -> MachineConfig:
    """A small machine config for fast integration tests."""
    return MachineConfig(
        memory_bytes=mbytes(memory_mb),
        compression_cache=compression_cache,
        **overrides,
    )


def run_workload_on(workload, config: MachineConfig, setup: bool = False):
    """Build, optionally warm up, run, and return (machine, result)."""
    machine = Machine(config, workload.build())
    engine = SimulationEngine(machine)
    if setup:
        engine.run(workload.setup_references())
        machine.reset_measurement()
    result = engine.run(workload.references())
    return machine, result
