"""Deterministic, seedable fault plans.

A :class:`FaultPlan` is the *schedule generator* for fault injection: a
seed plus per-site rates.  It is pure configuration — building a machine
from the same plan (same seed, same rates) over the same workload
produces bit-identical fault schedules, retries, and results, because
every injection decision is drawn from a per-site
:class:`random.Random` stream whose consumption order is fixed by the
(deterministic) simulation itself.

Plans load from JSON (``repro run --faults plan.json``)::

    {
      "seed": 1993,
      "device":     {"read_error_rate": 0.05, "write_error_rate": 0.05,
                     "latency_spike_rate": 0.1, "latency_spike_ms": 40.0},
      "fragments":  {"corrupt_read_rate": 0.02, "sticky_fraction": 0.25},
      "compressor": {"crash_rate": 0.02, "expand_rate": 0.02},
      "retry":      {"max_attempts": 6, "base_backoff_ms": 0.5},
      "degradation": {"window": 32, "fault_threshold": 0.5,
                      "min_events": 4, "cooldown_evictions": 64}
    }

Every section is optional; omitted sections inject nothing (or use the
default retry/degradation parameters).  Unknown keys are rejected — a
typoed rate silently injecting nothing would be worse than an error —
and so are booleans where a number belongs and non-finite numbers
(JSON's ``Infinity``/``NaN``): whatever the document, loading it either
returns a plan or raises :class:`FaultPlanError`.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Optional


class FaultPlanError(ValueError):
    """Raised when a fault-plan document is malformed."""


def _is_int(value) -> bool:
    # bool is an int subclass; JSON's true/false are not counts.
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """An int or float (never a bool) that is a finite float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:               # an int past any float
        return False


def _check_rate(name: str, value: float) -> None:
    if not _is_number(value) or not 0.0 <= value <= 1.0:
        raise FaultPlanError(f"{name} must be a rate in [0, 1]: {value!r}")


def _check_nonneg(name: str, value: float) -> None:
    if not _is_number(value) or value < 0:
        raise FaultPlanError(
            f"{name} must be a finite non-negative number: {value!r}"
        )


def _check_at_least_one(name: str, value: int) -> None:
    if not _is_int(value) or value < 1:
        raise FaultPlanError(f"{name} must be an integer >= 1: {value!r}")


def _check_max_faults(name: str, value) -> None:
    if value is not None and (not _is_int(value) or value < 0):
        raise FaultPlanError(
            f"{name} must be null or a non-negative integer: {value!r}"
        )


@dataclass(frozen=True)
class DeviceFaultConfig:
    """Transient/permanent transfer errors and latency spikes.

    Args:
        read_error_rate: probability a device read fails.
        write_error_rate: probability a device write fails.
        permanent_fraction: fraction of injected errors that are
            permanent (retrying cannot succeed); the rest are transient.
        latency_spike_rate: probability a successful transfer pays an
            extra ``latency_spike_ms``.
        latency_spike_ms: the spike, in milliseconds of virtual time.
        max_faults: cap on injected *errors* (spikes not counted);
            ``None`` = unlimited.
    """

    read_error_rate: float = 0.0
    write_error_rate: float = 0.0
    permanent_fraction: float = 0.0
    latency_spike_rate: float = 0.0
    latency_spike_ms: float = 0.0
    max_faults: Optional[int] = None

    def __post_init__(self) -> None:
        _check_rate("device.read_error_rate", self.read_error_rate)
        _check_rate("device.write_error_rate", self.write_error_rate)
        _check_rate("device.permanent_fraction", self.permanent_fraction)
        _check_rate("device.latency_spike_rate", self.latency_spike_rate)
        _check_nonneg("device.latency_spike_ms", self.latency_spike_ms)
        _check_max_faults("device.max_faults", self.max_faults)

    @property
    def enabled(self) -> bool:
        return (
            self.read_error_rate > 0
            or self.write_error_rate > 0
            or self.latency_spike_rate > 0
        )


@dataclass(frozen=True)
class FragmentFaultConfig:
    """Bit-flip corruption of compressed fragments on read.

    Args:
        corrupt_read_rate: probability a fragment read returns a payload
            with one flipped bit.
        sticky_fraction: fraction of corruptions that are written back
            to the stored bytes (bad medium) instead of only corrupting
            the returned buffer (bad transfer); sticky corruption defeats
            re-fetch and forces the fallback path.
        max_faults: cap on injected corruptions; ``None`` = unlimited.
    """

    corrupt_read_rate: float = 0.0
    sticky_fraction: float = 0.0
    max_faults: Optional[int] = None

    def __post_init__(self) -> None:
        _check_rate("fragments.corrupt_read_rate", self.corrupt_read_rate)
        _check_rate("fragments.sticky_fraction", self.sticky_fraction)
        _check_max_faults("fragments.max_faults", self.max_faults)

    @property
    def enabled(self) -> bool:
        return self.corrupt_read_rate > 0


@dataclass(frozen=True)
class CompressorFaultConfig:
    """Compression-kernel misbehaviour.

    Args:
        crash_rate: probability a compression attempt raises
            :class:`~repro.faults.errors.CompressorFaultError`.
        expand_rate: probability a compression attempt returns a
            pathologically *expanded* result (output larger than input),
            which fails the 4:3 threshold and takes the raw-swap path.
        max_faults: cap on injected faults; ``None`` = unlimited.
    """

    crash_rate: float = 0.0
    expand_rate: float = 0.0
    max_faults: Optional[int] = None

    def __post_init__(self) -> None:
        _check_rate("compressor.crash_rate", self.crash_rate)
        _check_rate("compressor.expand_rate", self.expand_rate)
        _check_max_faults("compressor.max_faults", self.max_faults)
        if self.crash_rate + self.expand_rate > 1.0:
            raise FaultPlanError(
                "compressor.crash_rate + compressor.expand_rate must not "
                f"exceed 1: {self.crash_rate} + {self.expand_rate}"
            )

    @property
    def enabled(self) -> bool:
        return self.crash_rate > 0 or self.expand_rate > 0


@dataclass(frozen=True)
class RetryConfig:
    """Bounded retry with exponential backoff (virtual-time charged).

    Args:
        max_attempts: total attempts per operation (first try included).
        base_backoff_ms: backoff before the first retry.
        multiplier: backoff growth factor per further retry.
        max_backoff_ms: backoff ceiling.
    """

    max_attempts: int = 5
    base_backoff_ms: float = 0.5
    multiplier: float = 4.0
    max_backoff_ms: float = 50.0

    def __post_init__(self) -> None:
        _check_at_least_one("retry.max_attempts", self.max_attempts)
        _check_nonneg("retry.base_backoff_ms", self.base_backoff_ms)
        _check_nonneg("retry.max_backoff_ms", self.max_backoff_ms)
        if not _is_number(self.multiplier) or self.multiplier < 1.0:
            raise FaultPlanError(
                f"retry.multiplier must be a finite number >= 1: "
                f"{self.multiplier!r}"
            )


@dataclass(frozen=True)
class DegradationConfig:
    """Graceful compression-bypass thresholds.

    The VM tracks the outcome of recent compression attempts (plus
    detected fragment corruption); when the fault fraction over the last
    ``window`` events reaches ``fault_threshold`` (with at least
    ``min_events`` observed), compression is bypassed — evictions take
    the stock uncompressed-paging path — for ``cooldown_evictions``
    evictions, then re-enabled with a cleared history.

    This is the paper's "it should be possible to disable compression
    completely when poor compression is obtained" follow-on, generalized
    from poor ratios to a misbehaving compression/storage substrate.
    """

    window: int = 32
    fault_threshold: float = 0.5
    min_events: int = 4
    cooldown_evictions: int = 64

    def __post_init__(self) -> None:
        _check_at_least_one("degradation.window", self.window)
        _check_rate("degradation.fault_threshold", self.fault_threshold)
        _check_at_least_one("degradation.min_events", self.min_events)
        _check_at_least_one(
            "degradation.cooldown_evictions", self.cooldown_evictions
        )


@dataclass(frozen=True)
class LfsFaultConfig:
    """Crash and checkpoint faults for the log-structured store.

    Only meaningful when the machine runs ``store="lfs"``; the fragment
    store has no crash machinery and ignores this section.

    Args:
        crash_rate: probability each kill-point consultation (sites
            ``lfs.append``, ``lfs.clean``, ``lfs.checkpoint``) fires a
            simulated power loss: the in-flight write is torn, volatile
            state is discarded, and recovery replay runs before the
            interrupted operation re-executes.
        torn_fraction: fraction of the in-flight write left visible
            after the crash; ``None`` draws it uniformly per crash.
        checkpoint_lost_rate: probability a checkpoint write is silently
            dropped by the medium (the store believes it succeeded), so
            the next recovery starts from the previous checkpoint and
            replays a longer tail of the log.
        max_faults: cap on injected crashes + lost checkpoints;
            ``None`` = unlimited.
    """

    crash_rate: float = 0.0
    torn_fraction: Optional[float] = None
    checkpoint_lost_rate: float = 0.0
    max_faults: Optional[int] = None

    def __post_init__(self) -> None:
        _check_rate("lfs.crash_rate", self.crash_rate)
        if self.torn_fraction is not None:
            _check_rate("lfs.torn_fraction", self.torn_fraction)
        _check_rate("lfs.checkpoint_lost_rate", self.checkpoint_lost_rate)
        _check_max_faults("lfs.max_faults", self.max_faults)

    @property
    def enabled(self) -> bool:
        return self.crash_rate > 0 or self.checkpoint_lost_rate > 0


_SECTIONS = {
    "device": DeviceFaultConfig,
    "fragments": FragmentFaultConfig,
    "compressor": CompressorFaultConfig,
    "lfs": LfsFaultConfig,
    "retry": RetryConfig,
    "degradation": DegradationConfig,
}


@dataclass(frozen=True)
class FaultPlan:
    """A complete, seedable fault-injection schedule specification."""

    seed: int = 0
    device: DeviceFaultConfig = field(default_factory=DeviceFaultConfig)
    fragments: FragmentFaultConfig = field(
        default_factory=FragmentFaultConfig
    )
    compressor: CompressorFaultConfig = field(
        default_factory=CompressorFaultConfig
    )
    lfs: LfsFaultConfig = field(default_factory=LfsFaultConfig)
    retry: RetryConfig = field(default_factory=RetryConfig)
    degradation: DegradationConfig = field(
        default_factory=DegradationConfig
    )

    def __post_init__(self) -> None:
        if not _is_int(self.seed):
            raise FaultPlanError(f"seed must be an integer: {self.seed!r}")

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    @classmethod
    def from_dict(cls, doc: dict) -> "FaultPlan":
        """Build a plan from a JSON-shaped dict, validating strictly."""
        if not isinstance(doc, dict):
            raise FaultPlanError(
                f"fault plan must be a JSON object, got {type(doc).__name__}"
            )
        unknown = set(doc) - set(_SECTIONS) - {"seed", "comment"}
        if unknown:
            raise FaultPlanError(
                f"unknown fault-plan keys: {sorted(unknown)}; "
                f"known: seed, comment, {', '.join(sorted(_SECTIONS))}"
            )
        kwargs = {"seed": doc.get("seed", 0)}
        for name, config_cls in _SECTIONS.items():
            section = doc.get(name)
            if section is None:
                continue
            if not isinstance(section, dict):
                raise FaultPlanError(
                    f"section {name!r} must be an object, "
                    f"got {type(section).__name__}"
                )
            known = {f.name for f in fields(config_cls)}
            bad = set(section) - known - {"comment"}
            if bad:
                raise FaultPlanError(
                    f"unknown keys in section {name!r}: {sorted(bad)}; "
                    f"known: {', '.join(sorted(known))}"
                )
            kwargs[name] = config_cls(
                **{k: v for k, v in section.items() if k != "comment"}
            )
        return cls(**kwargs)

    @classmethod
    def from_json(cls, path) -> "FaultPlan":
        """Load and validate a plan from a JSON file."""
        try:
            doc = json.loads(Path(path).read_bytes())
        except (ValueError, RecursionError) as exc:
            # ValueError covers malformed JSON and undecodable bytes.
            raise FaultPlanError(f"{path}: not valid JSON: {exc}") from exc
        return cls.from_dict(doc)

    def to_dict(self) -> dict:
        """JSON-shaped dict; ``from_dict(to_dict())`` round-trips."""
        return asdict(self)

    # ------------------------------------------------------------------
    # Instantiation
    # ------------------------------------------------------------------

    def build(self, resilience):
        """Create this plan's per-machine :class:`FaultInjector`.

        Each machine needs its own injector (its own RNG streams and
        fault-count caps); sharing one across machines would entangle
        their schedules.
        """
        from .injectors import FaultInjector

        return FaultInjector(self, resilience)

    def retry_policy(self):
        """The plan's :class:`~repro.faults.retry.RetryPolicy`."""
        from .retry import RetryPolicy

        return RetryPolicy(
            max_attempts=self.retry.max_attempts,
            base_backoff_s=self.retry.base_backoff_ms / 1000.0,
            multiplier=self.retry.multiplier,
            max_backoff_s=self.retry.max_backoff_ms / 1000.0,
        )
