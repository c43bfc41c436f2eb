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

from .degrade import DegradationController, ResilienceCounters
from .device import FaultyDevice
from .errors import (
    CompressorFaultError,
    DeviceIOError,
    FragmentChecksumError,
    IORetriesExhausted,
    MissingFragmentError,
    PagingFaultError,
    PermanentIOError,
    TransientIOError,
)
from .injectors import DeviceDecision, FaultInjector
from .plan import (
    CompressorFaultConfig,
    DegradationConfig,
    DeviceFaultConfig,
    FaultPlan,
    FaultPlanError,
    FragmentFaultConfig,
    RetryConfig,
)

# The retry module imports repro.sim.ledger, and repro.sim transitively
# imports the storage/ccache/vm modules that themselves import this
# package for the error types — loading retry lazily keeps that chain
# acyclic no matter which module is imported first.
_RETRY_EXPORTS = ("ResilientIO", "RetryPolicy")


def __getattr__(name: str):
    if name in _RETRY_EXPORTS:
        from . import retry

        return getattr(retry, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "CompressorFaultConfig",
    "CompressorFaultError",
    "DegradationConfig",
    "DegradationController",
    "DeviceDecision",
    "DeviceFaultConfig",
    "DeviceIOError",
    "FaultInjector",
    "FaultPlan",
    "FaultPlanError",
    "FaultyDevice",
    "FragmentChecksumError",
    "FragmentFaultConfig",
    "IORetriesExhausted",
    "MissingFragmentError",
    "PagingFaultError",
    "PermanentIOError",
    "ResilienceCounters",
    "ResilientIO",
    "RetryConfig",
    "RetryPolicy",
    "TransientIOError",
]
