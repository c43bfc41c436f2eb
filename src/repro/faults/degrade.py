"""Resilience accounting and graceful compression degradation.

:class:`ResilienceCounters` is the single accumulator for everything the
fault/resilience layer does: injected faults, retries, backoff time,
checksum verifications, recoveries, and degradation transitions.  It is a
*separate* object from the digest-pinned per-component counters
(``FragStoreCounters``, ``DeviceCounters``, …) on purpose: a default run
reports no ``resilience`` key (its retry wrapper counts into a block of
its own that stays zero), so ``RunResult.as_dict()`` emits exactly the
bytes it always has and the golden digests stay frozen.

:class:`DegradationController` is the "bypass compression when the
substrate misbehaves" state machine:

::

    NORMAL --(fault fraction over window >= threshold)--> DEGRADED
    DEGRADED --(cooldown_evictions write-out evictions)--> NORMAL

While DEGRADED, the VM routes evictions straight to the uncompressed
swap — the same fallback the paper prescribes for incompressible pages —
so a crashing compressor or a corrupting fragment store degrades service
instead of failing it.  On re-enable the observation window is cleared,
giving the substrate a fresh chance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..control.windowed import WindowedStats
from ..counters import Counters
from .plan import DegradationConfig


@dataclass
class ResilienceCounters(Counters):
    """Everything the fault-injection and resilience layers count.

    Reported as the ``resilience`` key of ``RunResult.as_dict()`` when a
    :class:`~repro.faults.plan.FaultPlan` is installed.
    """

    # Injected faults, by site.
    device_read_errors: int = 0
    device_write_errors: int = 0
    latency_spikes: int = 0
    latency_spike_seconds: float = 0.0
    fragment_corruptions: int = 0
    sticky_corruptions: int = 0
    compressor_crashes: int = 0
    compressor_expansions: int = 0

    # Log-structured store crash injection.
    lfs_crashes: int = 0              # simulated power losses fired
    lfs_checkpoints_lost: int = 0     # checkpoint writes silently dropped
    lfs_recoveries: int = 0           # recovery replays completed

    # Retry machinery.
    retries: int = 0
    retry_backoff_seconds: float = 0.0
    retries_exhausted: int = 0
    recovered_operations: int = 0     # failed at least once, then succeeded

    # Checksum path.
    crc_checks: int = 0
    crc_failures: int = 0

    # Fallback recoveries.
    backstop_refetches: int = 0       # reconstructed from the paging server
    deferred_writebacks: int = 0      # write-out abandoned; page re-created
    cleaner_requeues: int = 0         # dirty page put back on the FIFO

    # Degradation state machine.
    degradation_entries: int = 0
    degradation_exits: int = 0
    bypassed_evictions: int = 0

    @property
    def injected_faults(self) -> int:
        """Total injected fault events across all sites."""
        return (
            self.device_read_errors
            + self.device_write_errors
            + self.latency_spikes
            + self.fragment_corruptions
            + self.compressor_crashes
            + self.compressor_expansions
            + self.lfs_crashes
            + self.lfs_checkpoints_lost
        )

    def snapshot(self) -> dict:
        """The total leads, as ``run --faults`` prints it."""
        return {"injected_faults": self.injected_faults,
                **super().snapshot()}


@dataclass
class DegradationController:
    """NORMAL ⇄ DEGRADED gate over the compression path."""

    config: DegradationConfig
    resilience: ResilienceCounters
    _window: WindowedStats = field(init=False)
    _cooldown_left: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        # Event-mode WindowedStats is exactly the sliding window this
        # controller has always kept (deque(maxlen=window) plus a
        # running bad count) — the shared primitive the whole control
        # plane now runs on.
        self._window = WindowedStats(self.config.window)

    @property
    def degraded(self) -> bool:
        """True while compression is bypassed."""
        return self._cooldown_left > 0

    @property
    def compression_allowed(self) -> bool:
        return self._cooldown_left == 0

    def record(self, ok: bool) -> None:
        """Note one compression-path event (attempt or detected corruption).

        ``ok=False`` events are compressor crashes, injected expansions,
        and fragment checksum failures.  Events observed while already
        DEGRADED are ignored — the window restarts clean on re-enable.
        """
        if self._cooldown_left:
            return
        window = self._window
        window.record(bad=0 if ok else 1)
        count = window.count
        if count < self.config.min_events:
            return
        if window.total("bad") / count >= self.config.fault_threshold:
            self._cooldown_left = self.config.cooldown_evictions
            window.clear()
            self.resilience.degradation_entries += 1

    def note_bypassed_eviction(self) -> None:
        """Tick the cooldown: one eviction took the uncompressed path."""
        if not self._cooldown_left:
            return
        self.resilience.bypassed_evictions += 1
        self._cooldown_left -= 1
        if self._cooldown_left == 0:
            self.resilience.degradation_exits += 1
