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
from typing import Any, Dict, List, Mapping, Optional

from ..counters import Counters
from ..mem.frames import FrameOwner
from ..sim.ledger import TimeCategory
from .hotness import HotnessTracker
from .windowed import WindowedStats


@dataclass(frozen=True)
class ControlConfig:
    """Tuning knobs for the closed-loop tier controller.

    The policy triggers on the *miss fraction*: the share of demand
    faults (zero-fills excluded) that had to go past every compressed
    tier to the backing store or raw swap.  ``target_miss_fraction ±
    deadband`` is the comfort band; outside it — and only when the
    windowed compression ratio is below ``ratio_ceiling_percent``, i.e.
    compression is actually paying for itself — the controller spends
    one bounded action per evaluation.
    """

    #: Virtual seconds between controller evaluations.
    interval_s: float = 0.1
    #: Width of one telemetry window slot (virtual seconds).
    window_s: float = 0.1
    #: Number of slots in the telemetry ring.
    windows: int = 8
    #: Minimum virtual seconds between two issued actions.
    cooldown_s: float = 0.4
    #: Center of the miss-fraction comfort band.
    target_miss_fraction: float = 0.25
    #: Half-width of the comfort band (symmetric hysteresis).
    deadband: float = 0.1
    #: Above this achieved ratio, compression is not paying — the
    #: controller never grows the compressed tiers on its account.
    ratio_ceiling_percent: float = 85.0
    #: Evaluations with fewer windowed demand faults than this are
    #: "quiet" and never act.
    min_window_faults: int = 8
    #: Frames added/removed by one resize action.
    resize_step_frames: int = 8
    #: A capped tier is never shrunk below this.
    min_tier_frames: int = 8
    #: Upper cap bound; ``None`` derives it from the machine's frames.
    max_tier_frames: Optional[int] = None
    #: Occupancy (frames / cap) above which a grow is worthwhile.
    grow_occupancy: float = 0.85
    #: Occupancy below which a shrink reclaims idle frames.
    shrink_occupancy: float = 0.55
    #: Multiplicative step for warm-pool weight re-bias actions.
    weight_step: float = 2.0
    #: Bounds for the warm pool's trading weight.
    min_weight: float = 0.25
    max_weight: float = 16.0
    #: CPU charged to the virtual clock per evaluation.
    tick_cost_s: float = 2e-5
    #: Hotness tracking (the demotion-path filter); half-life of the
    #: decayed access count, the hot threshold, and the per-clean-round
    #: deferral budget.
    hotness: bool = True
    hot_half_life_s: float = 0.05
    hot_score: float = 2.0
    hot_skip_budget: int = 8
    max_tracked_pages: int = 65536
    #: After this many consecutive in-deadband evaluations, take one
    #: seeded exploratory resize step (0 disables probing).
    probe_every: int = 0
    #: Seed for the probe direction stream.
    seed: int = 0
    #: Bound on the serialized action log.
    log_limit: int = 64

    def __post_init__(self) -> None:
        for name in ("interval_s", "window_s", "cooldown_s",
                     "hot_half_life_s"):
            value = getattr(self, name)
            if not isfinite(value) or value <= 0:
                raise ValueError(
                    f"ControlConfig.{name} must be positive and finite, "
                    f"got {value!r}"
                )
        for name in ("windows", "min_window_faults", "resize_step_frames",
                     "min_tier_frames", "hot_skip_budget",
                     "max_tracked_pages", "log_limit"):
            if getattr(self, name) < 1:
                raise ValueError(
                    f"ControlConfig.{name} must be >= 1, "
                    f"got {getattr(self, name)!r}"
                )
        if not 0.0 < self.target_miss_fraction < 1.0:
            raise ValueError(
                "ControlConfig.target_miss_fraction must be in (0, 1), "
                f"got {self.target_miss_fraction!r}"
            )
        if not 0.0 <= self.deadband < 0.5:
            raise ValueError(
                "ControlConfig.deadband must be in [0, 0.5), "
                f"got {self.deadband!r}"
            )
        if self.weight_step <= 1.0:
            raise ValueError(
                "ControlConfig.weight_step must be > 1.0, "
                f"got {self.weight_step!r}"
            )
        if not 0 < self.min_weight <= self.max_weight:
            raise ValueError(
                "ControlConfig weight bounds need "
                f"0 < min_weight <= max_weight, got "
                f"{self.min_weight!r}..{self.max_weight!r}"
            )
        if self.max_tier_frames is not None and \
                self.max_tier_frames < self.min_tier_frames:
            raise ValueError(
                "ControlConfig.max_tier_frames must be >= min_tier_frames"
            )
        if self.probe_every < 0:
            raise ValueError("ControlConfig.probe_every must be >= 0")

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ControlConfig":
        """Build from a JSON-style mapping (sweep spec decoding)."""
        unknown = set(data) - {f for f in cls.__dataclass_fields__}
        if unknown:
            raise ValueError(
                f"unknown ControlConfig fields: {sorted(unknown)}"
            )
        return cls(**data)


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

    def __init__(self, window_s: float = 0.1, windows: int = 8):
        self.window = WindowedStats(windows, width_s=window_s)

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
        # The warm pool's trading terms start on the machine's policy;
        # the first retune pins them static.  Track the current weight
        # here (the allocator's term table is policy-private).
        policy = allocator.policy
        if policy is not None:
            warm_terms = policy.terms_for(FrameOwner.COMPRESSION)
        else:
            warm_terms = (1.0, 0.0)
        self._warm_weight = warm_terms[0]
        self._baseline_weight = warm_terms[0]
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
        cap_limit = total_frames - min_resident_frames - 2
        if config.max_tier_frames is not None:
            cap_limit = min(cap_limit, config.max_tier_frames)
        self._cap_limit = max(config.min_tier_frames, cap_limit)

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
        new_weight = min(self.config.max_weight,
                         max(self.config.min_weight, new_weight))
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

        if telemetry.demand_faults() < config.min_window_faults:
            counters.quiet_skips += 1
            return
        if self._last_action_at is not None and \
                now - self._last_action_at < config.cooldown_s:
            counters.cooldown_skips += 1
            return

        miss = telemetry.miss_fraction()
        high = config.target_miss_fraction + config.deadband
        low = config.target_miss_fraction - config.deadband
        ratio = telemetry.windowed_ratio_percent()
        compression_paying = (
            ratio is None or ratio <= config.ratio_ceiling_percent
        )

        acted = False
        if miss > high:
            if not compression_paying:
                # Misses are high but compressed pages barely shrink:
                # more compressed memory would not help.  Relax instead.
                counters.ratio_vetoes += 1
                acted = self._retune_warm(
                    now, self._warm_weight * config.weight_step
                )
            else:
                tier = self._resize_tier
                occupancy = (
                    tier.cache.nframes / tier.cache.max_frames
                    if tier is not None and tier.cache.max_frames else 0.0
                )
                if tier is not None and occupancy >= config.grow_occupancy:
                    acted = self._grow(now)
                if not acted:
                    acted = self._retune_warm(
                        now, self._warm_weight / config.weight_step
                    )
        elif miss < low:
            tier = self._resize_tier
            occupancy = (
                tier.cache.nframes / tier.cache.max_frames
                if tier is not None and tier.cache.max_frames else 1.0
            )
            if tier is not None and occupancy <= config.shrink_occupancy:
                acted = self._shrink(now)
            if not acted and self._warm_weight < self._baseline_weight:
                acted = self._retune_warm(
                    now, self._warm_weight * config.weight_step
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
    the hotness tracker current and, every ``interval_s`` of virtual
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
            HotnessTracker(
                half_life_s=config.hot_half_life_s,
                max_pages=config.max_tracked_pages,
            )
            if config.hotness else None
        )
        self.controller = TierController(
            config, allocator, chain, telemetry, self.counters,
            total_frames, min_resident_frames,
        )
        self._chain = chain
        self._next_tick_at = ledger.now + config.interval_s
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
        hot = self.hotness.is_hot(page_id, self.ledger.now,
                                  self.config.hot_score)
        if hot:
            self.counters.hot_deferrals += 1
        return hot

    # -- the control tick ------------------------------------------------

    def _tick(self, now: float) -> None:
        config = self.config
        self.ledger.charge(TimeCategory.CONTROL, config.tick_cost_s)
        self.counters.ticks += 1
        self._next_tick_at = now + config.interval_s

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
