"""Simulation engine: ledger and clock, costs, machine wiring, metrics."""

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "costs": ("CostModel",),
    "engine": ("PageRef", "RunResult", "SimulationEngine", "run_workload"),
    "ledger": ("Ledger", "TimeCategory"),
    "machine": ("DEVICE_PRESETS", "Machine", "MachineConfig"),
    "metrics": ("EvictionCounters", "FaultCounters", "SimulationMetrics"),
    "report": (
        "format_minutes_seconds", "render_sampler_stats", "render_series",
        "render_table",
    ),
})
