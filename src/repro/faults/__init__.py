"""Deterministic fault injection and resilient-paging machinery.

The subsystem has two halves:

* **Injection** — :class:`FaultPlan` (seedable, JSON-loadable
  configuration) builds a per-machine :class:`FaultInjector` whose
  decisions drive :class:`FaultyDevice` (transfer errors, latency
  spikes), fragment bit-flips inside
  :class:`~repro.storage.fragstore.FragmentStore`, and compressor
  crash/expansion faults in the eviction path.
* **Resilience** — :class:`RetryPolicy`/:class:`ResilientIO` (bounded
  retry with virtual-time backoff), per-fragment CRC32 verify-on-read
  with re-fetch/fallback recovery, and the
  :class:`DegradationController` that bypasses compression while the
  substrate misbehaves.  Everything is counted in
  :class:`ResilienceCounters` and reported under the ``resilience`` key
  of ``RunResult.as_dict()``.

With no plan installed nothing is injected and no ``resilience`` key is
reported (the golden-digest tests pin that).  The retry wrapper is the
one part every machine has: a plan-free run goes through the same
paging-I/O code, where no attempt fails and nothing is charged.
"""

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "degrade": ("DegradationController", "ResilienceCounters"),
    "device": ("FaultyDevice",),
    "errors": (
        "CompressorFaultError", "DeviceIOError", "FragmentChecksumError",
        "IORetriesExhausted", "MissingFragmentError", "PagingFaultError",
        "PermanentIOError", "TransientIOError",
    ),
    "injectors": ("DeviceDecision", "FaultInjector"),
    "plan": (
        "CompressorFaultConfig", "DegradationConfig", "DeviceFaultConfig",
        "FaultPlan", "FaultPlanError", "FragmentFaultConfig", "RetryConfig",
    ),
    "retry": ("ResilientIO", "RetryPolicy"),
})
