"""Closed-form models of Figure 1."""

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "analytic": (
        "SpeedupSurface", "figure_1a", "figure_1b", "in_memory_speedup",
        "read_bandwidth_speedup", "transfer_bandwidth_speedup",
        "write_bandwidth_speedup",
    ),
})
