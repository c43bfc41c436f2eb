"""TierController: deadband + cooldown autotuning of tier geometry.

The paper sizes the compression cache statically and notes the best
split between uncompressed memory, compressed cache, and disk is
workload-dependent (Section 4.2); Intel's multi-tier TCO work and
Ariadne (PAPERS.md) show the win comes from *online* adaptation.  This
module closes the loop:

* :class:`TierTelemetry` — windowed per-tier fault accounting (one
  time-mode :class:`~repro.control.windowed.WindowedStats` fed from the
  VM fault path) plus per-tick deltas of demotions and compression
  bytes.
* :class:`TierController` — the policy: every evaluation compares the
  windowed miss fraction against a target with a symmetric deadband,
  and — outside the deadband, past the cooldown, and only when the
  achieved compression ratio says compression is paying — issues one
  bounded action: grow/shrink the capped tier's frame budget
  (:meth:`TieredAllocator.resize_pool`, spill-safe) or re-bias the warm
  pool's trading weight (:meth:`TieredAllocator.retune`).
* :class:`ControlPlane` — the machine-facing facade: owns the
  :class:`~repro.control.hotness.HotnessTracker`, charges every
  evaluation to the virtual clock (``TimeCategory.CONTROL``), and logs
  every action into :class:`ControlCounters` for
  ``RunResult.control_counters``.

Determinism contract: every decision is a pure function of windowed
virtual-time telemetry; the only randomness is the seeded probe stream
(disabled by default), so a controller-led run replays bit-for-bit.
"""

from __future__ import annotations

import random
from dataclasses import InitVar, dataclass, field
from math import isfinite
from typing import Dict, List, Optional

from ..counters import Counters
from ..mem.frames import FrameOwner
from ..sim.ledger import TimeCategory
from .hotness import HotnessTracker
from .windowed import WindowedStats


#: Virtual seconds between controller evaluations.
INTERVAL_S = 0.1
#: Width of one telemetry window slot (virtual seconds), and the number
#: of slots in the ring.
WINDOW_S = 0.1
WINDOWS = 8
#: Center and half-width of the miss-fraction comfort band.
TARGET_MISS_FRACTION = 0.25
DEADBAND = 0.1
#: Above this achieved ratio, compression is not paying — the controller
#: never grows the compressed tiers on its account.
RATIO_CEILING_PERCENT = 85.0
#: Evaluations with fewer windowed demand faults than this are "quiet"
#: and never act.
MIN_WINDOW_FAULTS = 8
#: Occupancy (frames / cap) above which a grow is worthwhile, and below
#: which a shrink reclaims idle frames.
GROW_OCCUPANCY = 0.85
SHRINK_OCCUPANCY = 0.55
#: Multiplicative step of a warm-pool weight re-bias, and its upper bound.
WEIGHT_STEP = 2.0
MAX_WEIGHT = 16.0
#: CPU charged to the virtual clock per evaluation.
TICK_COST_S = 2e-5
#: Half-life of the hotness tracker's decayed access count.
HOT_HALF_LIFE_S = 0.05


@dataclass(frozen=True)
class ControlConfig:
    """Tuning knobs for the closed-loop tier controller.

    The policy triggers on the *miss fraction*: the share of demand
    faults (zero-fills excluded) that had to go past every compressed
    tier to the backing store or raw swap.  ``TARGET_MISS_FRACTION ±
    DEADBAND`` is the comfort band; outside it — and only when the
    windowed compression ratio is below ``RATIO_CEILING_PERCENT``, i.e.
    compression is actually paying for itself — the controller spends
    one bounded action per evaluation.  Those constants, and the rest
    above, are the policy's fixed shape; the fields are what a run sets.
    """

    #: Minimum virtual seconds between two issued actions.
    cooldown_s: float = 0.4
    #: Frames added/removed by one resize action.
    resize_step_frames: int = 8
    #: A capped tier is never shrunk below this.
    min_tier_frames: int = 8
    #: Lower bound for the warm pool's trading weight.
    min_weight: float = 0.25
    #: Hotness tracking (the demotion-path filter).
    hotness: bool = True
    #: After this many consecutive in-deadband evaluations, take one
    #: seeded exploratory resize step (0 disables probing).
    probe_every: int = 0
    #: Seed for the probe direction stream.
    seed: int = 0
    #: Bound on the serialized action log.
    log_limit: int = 64

    def __post_init__(self) -> None:
        if not isfinite(self.cooldown_s) or self.cooldown_s <= 0:
            raise ValueError(
                "ControlConfig.cooldown_s must be positive and finite, "
                f"got {self.cooldown_s!r}"
            )
        for name in ("resize_step_frames", "min_tier_frames", "log_limit"):
            if getattr(self, name) < 1:
                raise ValueError(
                    f"ControlConfig.{name} must be >= 1, "
                    f"got {getattr(self, name)!r}"
                )
        if not 0 < self.min_weight <= MAX_WEIGHT:
            raise ValueError(
                f"ControlConfig.min_weight must be in (0, {MAX_WEIGHT}], "
                f"got {self.min_weight!r}"
            )
        if self.probe_every < 0:
            raise ValueError("ControlConfig.probe_every must be >= 0")


@dataclass
class ControlCounters(Counters):
    """Everything the control plane did, for ``RunResult``.

    Only built when a :class:`ControlConfig` is installed; serialized as
    the ``control`` key of ``RunResult.as_dict()`` — absent from every
    controller-off run, so the pre-existing golden digests never move.
    """

    ticks: int = 0
    actions: int = 0
    grows: int = 0
    shrinks: int = 0
    retunes: int = 0
    probes: int = 0
    deadband_skips: int = 0
    cooldown_skips: int = 0
    quiet_skips: int = 0
    ratio_vetoes: int = 0
    frames_released: int = 0
    hot_deferrals: int = 0
    log: List[dict] = field(default_factory=list)
    #: A bound, not a reading: an argument, kept out of ``snapshot()``.
    log_limit: InitVar[int] = 64
    log_dropped: int = 0

    def __post_init__(self, log_limit: int) -> None:
        self.log_limit = log_limit

    def note_action(self, now: float, action: str, pool: str,
                    value: float) -> None:
        if len(self.log) < self.log_limit:
            self.log.append({
                "t": round(now, 6),
                "action": action,
                "pool": pool,
                "value": value,
            })
        else:
            self.log_dropped += 1


class TierTelemetry:
    """Windowed fault/demotion/ratio accounting for the control loop.

    The VM fault path calls :meth:`note_fault` (and the compressed VM
    :meth:`note_tier_hit` with the serving tier's name); the plane's
    tick adds per-interval deltas of demotions and compression bytes.
    All host-side bookkeeping — nothing here charges the virtual clock,
    so collecting telemetry can never move simulation output.
    """

    def __init__(self):
        self.window = WindowedStats(WINDOWS, width_s=WINDOW_S)

    # Fault sources, recorded by the VM fault path -----------------------

    def note_fault(self, source_value: str, now: float) -> None:
        """One page fault; ``source_value`` is ``FaultSource.value``."""
        self.window.record(now, **{"faults": 1, f"src:{source_value}": 1})

    def note_tier_hit(self, tier_name: str, now: float) -> None:
        """A fault served by compressed tier ``tier_name``."""
        self.window.record(now, **{f"tier:{tier_name}": 1})

    def note_deltas(self, now: float, **deltas: float) -> None:
        """Per-tick deltas (demotions, compression bytes) from the plane."""
        self.window.record(now, **deltas)

    # Derived readings ---------------------------------------------------

    def demand_faults(self) -> float:
        """Windowed faults that had real data behind them (no zero-fills)."""
        return self.window.total("faults") - self.window.total("src:zero-fill")

    def miss_fraction(self) -> float:
        """Share of demand faults that went past every compressed tier."""
        demand = self.demand_faults()
        if not demand:
            return 0.0
        misses = (self.window.total("src:fragstore")
                  + self.window.total("src:swap"))
        return misses / demand

    def windowed_ratio_percent(self) -> Optional[float]:
        """Compressed/original size over the window, or None when idle."""
        bytes_in = self.window.total("comp_bytes_in")
        if not bytes_in:
            return None
        return self.window.total("comp_bytes_out") / bytes_in * 100.0

    def tier_hit_rate(self, tier_name: str) -> float:
        """Windowed share of all faults served by ``tier_name``."""
        faults = self.window.total("faults")
        if not faults:
            return 0.0
        return self.window.total(f"tier:{tier_name}") / faults


class TierController:
    """The deadband + cooldown policy over one machine's tier chain.

    One bounded action per evaluation, in preference order:

    * miss fraction above the band and compression paying → grow the
      capped tier when it is running full, otherwise re-bias the warm
      pool's weight *down* (favoring compressed pages, which the paper
      observes makes "the compression cache ... tend to grow").
    * miss fraction below the band → shrink an underused capped tier
      (spill-safe) to hand frames back, otherwise relax the warm weight
      back toward its configured baseline.
    """

    def __init__(self, config: ControlConfig, allocator, chain,
                 telemetry: TierTelemetry, counters: ControlCounters,
                 total_frames: int, min_resident_frames: int = 2):
        self.config = config
        self.allocator = allocator
        self.chain = chain
        self.telemetry = telemetry
        self.counters = counters
        self._rng = random.Random(config.seed)
        self._last_action_at: Optional[float] = None
        self._in_deadband_streak = 0
        # The warm pool's weight starts on the machine's policy; the
        # first retune pins it static.  Track the current weight here
        # (the allocator's weight table is policy-private).
        policy = allocator.policy
        self._warm_weight = (
            policy.weight_for(FrameOwner.COMPRESSION)
            if policy is not None else 1.0
        )
        self._baseline_weight = self._warm_weight
        # The resize target: the warmest tier that carries a frame cap
        # (fixed-geometry tiers are exactly the ones whose size is a
        # policy decision rather than allocator-emergent).
        self._resize_tier = None
        self._resize_key = None
        for tier in chain.tiers:
            if tier.cache.max_frames is not None:
                self._resize_tier = tier
                self._resize_key = (
                    FrameOwner.COMPRESSION if tier is chain.warmest
                    else f"cc:{tier.name}"
                )
                break
        self._cap_limit = max(config.min_tier_frames,
                              total_frames - min_resident_frames - 2)

    # -- actions ---------------------------------------------------------

    def _grow(self, now: float) -> bool:
        tier = self._resize_tier
        if tier is None:
            return False
        cap = tier.cache.max_frames
        if cap >= self._cap_limit:
            return False
        new_cap = min(self._cap_limit, cap + self.config.resize_step_frames)
        self.allocator.resize_pool(self._resize_key, new_cap)
        self.counters.grows += 1
        self.counters.note_action(now, "grow", tier.name, new_cap)
        return True

    def _shrink(self, now: float) -> bool:
        tier = self._resize_tier
        if tier is None:
            return False
        cap = tier.cache.max_frames
        if cap <= self.config.min_tier_frames:
            return False
        new_cap = max(self.config.min_tier_frames,
                      cap - self.config.resize_step_frames)
        released = self.allocator.resize_pool(self._resize_key, new_cap)
        self.counters.shrinks += 1
        self.counters.frames_released += released
        self.counters.note_action(now, "shrink", tier.name, new_cap)
        return True

    def _retune_warm(self, now: float, new_weight: float) -> bool:
        new_weight = min(MAX_WEIGHT, max(self.config.min_weight, new_weight))
        if new_weight == self._warm_weight:
            return False
        self.allocator.retune(FrameOwner.COMPRESSION, weight=new_weight)
        self._warm_weight = new_weight
        self.counters.retunes += 1
        self.counters.note_action(
            now, "retune", FrameOwner.COMPRESSION.value, new_weight
        )
        return True

    # -- the policy ------------------------------------------------------

    def evaluate(self, now: float) -> None:
        """One control decision; called by the plane every interval."""
        config = self.config
        counters = self.counters
        telemetry = self.telemetry
        telemetry.window.advance(now)

        if telemetry.demand_faults() < MIN_WINDOW_FAULTS:
            counters.quiet_skips += 1
            return
        if self._last_action_at is not None and \
                now - self._last_action_at < config.cooldown_s:
            counters.cooldown_skips += 1
            return

        miss = telemetry.miss_fraction()
        high = TARGET_MISS_FRACTION + DEADBAND
        low = TARGET_MISS_FRACTION - DEADBAND
        ratio = telemetry.windowed_ratio_percent()
        compression_paying = ratio is None or ratio <= RATIO_CEILING_PERCENT

        acted = False
        if miss > high:
            if not compression_paying:
                # Misses are high but compressed pages barely shrink:
                # more compressed memory would not help.  Relax instead.
                counters.ratio_vetoes += 1
                acted = self._retune_warm(
                    now, self._warm_weight * WEIGHT_STEP
                )
            else:
                tier = self._resize_tier
                occupancy = (
                    tier.cache.nframes / tier.cache.max_frames
                    if tier is not None and tier.cache.max_frames else 0.0
                )
                if tier is not None and occupancy >= GROW_OCCUPANCY:
                    acted = self._grow(now)
                if not acted:
                    acted = self._retune_warm(
                        now, self._warm_weight / WEIGHT_STEP
                    )
        elif miss < low:
            tier = self._resize_tier
            occupancy = (
                tier.cache.nframes / tier.cache.max_frames
                if tier is not None and tier.cache.max_frames else 1.0
            )
            if tier is not None and occupancy <= SHRINK_OCCUPANCY:
                acted = self._shrink(now)
            if not acted and self._warm_weight < self._baseline_weight:
                acted = self._retune_warm(
                    now, self._warm_weight * WEIGHT_STEP
                )

        if acted:
            counters.actions += 1
            self._last_action_at = now
            self._in_deadband_streak = 0
            return

        counters.deadband_skips += 1
        self._in_deadband_streak += 1
        if config.probe_every and \
                self._in_deadband_streak >= config.probe_every:
            self._in_deadband_streak = 0
            probed = (self._grow(now) if self._rng.random() < 0.5
                      else self._shrink(now))
            if probed:
                counters.probes += 1
                counters.actions += 1
                self._last_action_at = now


class ControlPlane:
    """Machine-facing facade: hotness, telemetry ticks, and the policy.

    The engine calls :meth:`note_reference` once per reference; it keeps
    the hotness tracker current and, every ``INTERVAL_S`` of virtual
    time, charges one ``TimeCategory.CONTROL`` tick and runs the
    controller.
    """

    def __init__(self, config: ControlConfig, ledger, allocator, chain,
                 metrics, telemetry: TierTelemetry, total_frames: int,
                 min_resident_frames: int = 2):
        self.config = config
        self.ledger = ledger
        self.metrics = metrics
        self.telemetry = telemetry
        self.counters = ControlCounters(log_limit=config.log_limit)
        self.hotness: Optional[HotnessTracker] = (
            HotnessTracker(half_life_s=HOT_HALF_LIFE_S)
            if config.hotness else None
        )
        self.controller = TierController(
            config, allocator, chain, telemetry, self.counters,
            total_frames, min_resident_frames,
        )
        self._chain = chain
        self._next_tick_at = ledger.now + INTERVAL_S
        self._last_bytes_in = metrics.compression.bytes_in
        self._last_bytes_out = metrics.compression.bytes_out
        self._last_demoted = 0

    def rebind_metrics(self, metrics) -> None:
        """Follow a ``Machine.reset_measurement`` metrics swap."""
        self.metrics = metrics
        self._last_bytes_in = metrics.compression.bytes_in
        self._last_bytes_out = metrics.compression.bytes_out

    # -- hot path --------------------------------------------------------

    def note_reference(self, page_id) -> None:
        """Per-reference hook: hotness touch + deadline-checked tick."""
        now = self.ledger.now
        hotness = self.hotness
        if hotness is not None:
            hotness.touch(page_id, now)
        if now >= self._next_tick_at:
            self._tick(now)

    def hot_filter(self, page_id) -> bool:
        """Demotion-path predicate (installed as ``cache.hot_filter``)."""
        hot = self.hotness.is_hot(page_id, self.ledger.now)
        if hot:
            self.counters.hot_deferrals += 1
        return hot

    # -- the control tick ------------------------------------------------

    def _tick(self, now: float) -> None:
        self.ledger.charge(TimeCategory.CONTROL, TICK_COST_S)
        self.counters.ticks += 1
        self._next_tick_at = now + INTERVAL_S

        # Fold per-interval deltas of eviction-path compression bytes and
        # demotions into the telemetry window: these have no per-event
        # hook of their own.
        compression = self.metrics.compression
        bytes_in = compression.bytes_in
        bytes_out = compression.bytes_out
        demoted = self._chain.demoted_pages()
        deltas: Dict[str, float] = {}
        if bytes_in != self._last_bytes_in:
            deltas["comp_bytes_in"] = bytes_in - self._last_bytes_in
            deltas["comp_bytes_out"] = bytes_out - self._last_bytes_out
        if demoted != self._last_demoted:
            deltas["demotions"] = demoted - self._last_demoted
        if deltas:
            self.telemetry.note_deltas(now, **deltas)
        self._last_bytes_in = bytes_in
        self._last_bytes_out = bytes_out
        self._last_demoted = demoted

        self.controller.evaluate(now)
