"""Closed-loop control plane: telemetry, hotness, and tier autotuning.

Three layers, each usable on its own:

* :class:`WindowedStats` — the shared windowed-telemetry primitive (a
  ring of fixed event- or virtual-time windows with O(1) updates).  The
  faults subsystem's :class:`~repro.faults.degrade.DegradationController`
  is built on it.
* :class:`HotnessTracker` — recency+frequency page temperature consulted
  by the demotion path so cold-but-compressible pages sink while hot
  pages stay warm.
* :class:`TierController` / :class:`ControlPlane` — the deadband +
  cooldown policy loop that observes windowed per-tier telemetry and
  issues bounded ``resize_pool`` / ``retune`` actions against the
  :class:`~repro.ccache.allocator.TieredAllocator` at runtime.

Everything is deterministic: decisions are pure functions of windowed
virtual-time telemetry plus a seeded probe stream, so a controller-led
run replays bit-for-bit (the control digests in the test suite pin
this).  With no :class:`ControlConfig` installed none of it is
constructed and the golden digests stay byte-identical.
"""

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "controller": (
        "ControlConfig", "ControlCounters", "ControlPlane", "TierController",
        "TierTelemetry",
    ),
    "hotness": ("HotnessTracker",),
    "windowed": ("WindowedStats",),
})
