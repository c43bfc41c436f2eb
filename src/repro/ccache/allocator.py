"""Age-based memory trading between an ordered list of memory pools.

Sprite already traded memory between VM and the file system by comparing
the ages of each pool's LRU entry and reclaiming the older, "modulo an
adjustment to favor retaining VM pages longer" (Section 4.2).  The
compression cache becomes a third consumer: "allocation of each of the
three types of memory ... requires a comparison of the ages of the oldest
pages for all three types.  The system biases the ages to favor
compressed pages over uncompressed pages and both of these over file
cache blocks."

The bias here is additive seconds on a pool's raw LRU age: a larger bias
makes the pool's coldest entry look older and therefore get reclaimed
sooner.  Favoring compressed pages most means the cache's bias is the
smallest (zero by default).  The key tunable the paper discusses — "the
more the system favors compressed pages, the larger the compression cache
will tend to grow in periods of heavy paging; with a very low bias ...
the compression cache degenerates into a buffer for compressing and
decompressing pages between memory and the backing store" — is the gap
between ``vm_bias_s`` and ``ccache_bias_s``, swept by the policy-ablation
benchmark.

The mechanism is not limited to three pools.  :class:`TieredAllocator`
arbitrates over an *ordered list* of registered pools, each with its own
``(weight, bias)`` age terms — the shape an N-tier compressed-memory
hierarchy needs, where every compressed tier competes for frames
separately (see :mod:`repro.tiers`).  :class:`ThreeWayAllocator` is the
paper's three-pool configuration of the same machinery, with its terms
supplied by an :class:`AllocationBiases` trading policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite
from typing import Dict, Optional, Protocol, Tuple

from ..mem.frames import FrameOwner, FramePool, OutOfFramesError


class MemoryPool(Protocol):
    """What the allocator needs from each memory consumer."""

    def coldest_age(self, now: float) -> Optional[float]:
        """Age in seconds of the pool's LRU entry, or None when empty."""

    def shrink_one(self) -> Optional[float]:
        """Give one frame back to the pool (charging any write-back I/O
        internally).  Returns a float on success, None when the pool
        cannot shrink right now."""


class TradingPolicy(Protocol):
    """Supplies per-pool ``(weight, bias_seconds)`` age terms.

    Victim selection computes ``effective_age = age * weight + bias`` for
    each registered pool and reclaims from the largest.  A policy maps a
    pool's registration key to its two terms; pools registered with
    explicit terms (the N-tier path) bypass the policy entirely.
    """

    def terms_for(self, key: object) -> Tuple[float, float]:
        """``(weight, bias_seconds)`` for the pool registered as ``key``."""


def _validate_terms(label: str, weight: float, bias_s: float) -> None:
    """Reject weights/biases that produce nonsense effective ages."""
    if not isfinite(weight) or weight <= 0:
        raise ValueError(
            f"{label}: age weight must be a positive finite number, "
            f"got {weight!r} (a zero or negative weight erases or inverts "
            "LRU ordering)"
        )
    if not isfinite(bias_s) or bias_s < 0:
        raise ValueError(
            f"{label}: age bias must be a non-negative finite number of "
            f"seconds, got {bias_s!r} (a negative bias makes effective "
            "ages meaningless)"
        )


@dataclass(frozen=True)
class AllocationBiases:
    """Age biases: ``effective_age = age * weight + bias_seconds``.

    A bigger effective age means reclaimed sooner.  Defaults order
    eviction pressure as file cache first, uncompressed VM pages second,
    compressed pages last — the paper's stated preference.  The weights
    are the primary knob: they are scale-free (a workload that runs 10x
    longer sees the same relative policy), matching Sprite's practice of
    comparing LRU ages with a proportional adjustment.  The VM-vs-cache
    gap is deliberately modest: the paper found that "the more the
    system favors compressed pages, the larger the compression cache
    will tend to grow" at the expense of the uncompressed pool, and a
    middling setting performed best across its application mix (the
    policy-ablation benchmark sweeps this).

    All weights must be positive and all biases non-negative (and every
    term finite); violations raise ``ValueError`` at construction rather
    than silently producing inverted or negative effective ages.
    """

    file_cache_bias_s: float = 0.0
    vm_bias_s: float = 0.0
    ccache_bias_s: float = 0.0
    file_cache_weight: float = 12.0
    vm_weight: float = 6.0
    ccache_weight: float = 1.0

    def __post_init__(self) -> None:
        _validate_terms("file_cache", self.file_cache_weight,
                        self.file_cache_bias_s)
        _validate_terms("vm", self.vm_weight, self.vm_bias_s)
        _validate_terms("ccache", self.ccache_weight, self.ccache_bias_s)

    def effective_age(self, owner: FrameOwner, age: float) -> float:
        """Bias-adjusted age used for victim selection."""
        weight, bias = self.terms_for(owner)
        return age * weight + bias

    def terms_for(self, owner: FrameOwner) -> Tuple[float, float]:
        """TradingPolicy protocol: ``(weight, bias)`` for one owner."""
        if owner == FrameOwner.FILE_CACHE:
            return self.file_cache_weight, self.file_cache_bias_s
        if owner == FrameOwner.VM:
            return self.vm_weight, self.vm_bias_s
        return self.ccache_weight, self.ccache_bias_s


@dataclass
class AllocatorCounters:
    """How often each pool was chosen as the reclamation victim."""

    victims: Dict[str, int] = field(default_factory=dict)

    def snapshot(self) -> dict:
        return dict(self.victims)


def _pool_label(key: object) -> str:
    """Stable string label for victim counters and error messages."""
    return key.value if isinstance(key, FrameOwner) else str(key)


class TieredAllocator:
    """Arbitrates physical frames between an ordered list of pools.

    Pools register under a hashable key — a :class:`FrameOwner` for the
    classic three consumers, a tier name for the compressed tiers of an
    N-tier chain.  Each pool's ``(weight, bias)`` age terms are fixed
    when it registers — the installed :class:`TradingPolicy`'s for that
    key, or the explicit per-registration pair — and move only by
    :meth:`retune`.
    """

    def __init__(
        self,
        frames: FramePool,
        policy: Optional[TradingPolicy] = None,
        now_fn=None,
    ):
        self.frames = frames
        self.policy: Optional[TradingPolicy] = policy
        self._now_fn = now_fn if now_fn is not None else (lambda: 0.0)
        self._pools: Dict[object, Optional[MemoryPool]] = {}
        #: Each key's victim-counter label, worked out once at
        #: registration (a frame is reclaimed per fault under pressure).
        self._labels: Dict[object, str] = {}
        #: Each key's ``(weight, bias)``, read by every victim choice.
        self._terms: Dict[object, Tuple[float, float]] = {}
        self._shrinking: set = set()
        self.counters = AllocatorCounters()

    def register_pool(
        self,
        key: object,
        pool: Optional[MemoryPool],
        weight: Optional[float] = None,
        bias_s: Optional[float] = None,
    ) -> None:
        """Attach a pool under ``key`` with explicit or policy terms.

        Explicit ``weight``/``bias_s`` are validated here; leaving both
        ``None`` takes the installed trading policy's terms for ``key``,
        which it must know.
        """
        label = _pool_label(key)
        if weight is None and bias_s is None:
            if self.policy is None:
                raise ValueError(
                    f"pool {label!r} registered without terms and no "
                    "trading policy is installed"
                )
            terms = self.policy.terms_for(key)
        else:
            terms = (1.0 if weight is None else weight,
                     0.0 if bias_s is None else bias_s)
            _validate_terms(label, *terms)
        if key not in self._pools:
            self.counters.victims.setdefault(label, 0)
        self._pools[key] = pool
        self._labels[key] = label
        self._terms[key] = terms

    def release_pools(self) -> None:
        """Forget every pool: the machine that wired them is gone.

        The pools hold this allocator (it is their frame provider), so
        the references held here are what keeps a dead machine's parts
        in a cycle.  Afterwards :meth:`obtain_frame` can only hand out
        frames that are already free.
        """
        self._pools.clear()

    def obtain_frame(self, for_owner: FrameOwner) -> int:
        """Get a frame for ``for_owner``, reclaiming from the globally
        oldest (bias-adjusted) pool if none is free.

        Raises:
            OutOfFramesError: when no pool can give anything up.
        """
        while self.frames.free_frames == 0:
            victim = self._choose_victim()
            if victim is None:
                if not self._pools:
                    raise OutOfFramesError(
                        "this allocator's machine was released: its "
                        "parts are valid only while the Machine is "
                        f"referenced (requested by {for_owner.value})"
                    )
                raise OutOfFramesError(
                    "no pool can release a frame "
                    f"(requested by {for_owner.value})"
                )
            key, pool = victim
            self._shrinking.add(key)
            try:
                result = pool.shrink_one()
            finally:
                self._shrinking.discard(key)
            if result is None:
                # The pool reneged (e.g. only its tail frame left); retry
                # without it by marking it temporarily unavailable.
                self._shrinking.add(key)
                try:
                    retry = self._choose_victim()
                    if retry is None:
                        raise OutOfFramesError(
                            "every pool refused to release a frame"
                        )
                    retry_key, retry_pool = retry
                    self._shrinking.add(retry_key)
                    try:
                        if retry_pool.shrink_one() is None:
                            raise OutOfFramesError(
                                "every pool refused to release a frame"
                            )
                    finally:
                        self._shrinking.discard(retry_key)
                    self.counters.victims[self._labels[retry_key]] += 1
                finally:
                    self._shrinking.discard(key)
            else:
                self.counters.victims[self._labels[key]] += 1
        return self.frames.allocate(for_owner)

    def retune(
        self,
        key: object,
        weight: Optional[float] = None,
        bias_s: Optional[float] = None,
    ) -> Tuple[float, float]:
        """Re-bias a registered pool's trading terms at runtime.

        Terms left ``None`` keep their current value; the next victim
        choice sees the new pair.  Returns the effective
        ``(weight, bias_s)``.

        Raises:
            KeyError: when no pool is registered under ``key``.
            ValueError: when the resulting terms are invalid.
        """
        label = _pool_label(key)
        if key not in self._pools:
            raise KeyError(
                f"cannot retune unregistered pool {label!r}"
            )
        current = self._terms[key]
        new_weight = current[0] if weight is None else weight
        new_bias = current[1] if bias_s is None else bias_s
        _validate_terms(label, new_weight, new_bias)
        self._terms[key] = (new_weight, new_bias)
        return (new_weight, new_bias)

    def resize_pool(self, key: object, max_frames: Optional[int]) -> int:
        """Change a capped pool's frame budget at runtime, spill-safe.

        Sets the pool's ``max_frames`` (``None`` lifts the cap) and, when
        shrinking below the pool's live footprint, asks it to give frames
        back one at a time — each ``shrink_one`` call demotes or writes
        pages out through the pool's own resilient path (DemotionSink
        spill-to-store included), so no data is ever lost.  A pool may
        legitimately stop early (e.g. only its unsealed tail frame left);
        the cap still applies to future growth.  Returns the number of
        frames released.

        Raises:
            KeyError: when no pool is registered under ``key``.
            TypeError: when the pool does not support a frame cap.
            ValueError: for a non-positive cap.
        """
        label = _pool_label(key)
        if key not in self._pools:
            raise KeyError(
                f"cannot resize unregistered pool {label!r}"
            )
        pool = self._pools[key]
        if pool is None or not hasattr(pool, "max_frames") \
                or not hasattr(pool, "nframes"):
            raise TypeError(
                f"pool {label!r} does not support a frame cap"
            )
        if max_frames is not None and max_frames < 1:
            raise ValueError(
                f"{label}: max_frames must be >= 1 or None, "
                f"got {max_frames!r}"
            )
        pool.max_frames = max_frames
        released = 0
        if max_frames is not None:
            self._shrinking.add(key)
            try:
                while pool.nframes > max_frames:
                    if pool.shrink_one() is None:
                        break
                    released += 1
            finally:
                self._shrinking.discard(key)
        return released

    def _choose_victim(self):
        terms = self._terms
        now = self._now_fn()
        best = None
        best_age = None
        for key, pool in self._pools.items():
            if pool is None or key in self._shrinking:
                continue
            age = pool.coldest_age(now)
            if age is None:
                continue
            weight, bias = terms[key]
            effective = age * weight + bias
            if best_age is None or effective > best_age:
                best_age = effective
                best = (key, pool)
        return best


class ThreeWayAllocator(TieredAllocator):
    """The paper's three-pool arbitration: VM, compression cache, file
    cache, with age terms from an :class:`AllocationBiases` policy.

    Pools register themselves once constructed; a pool slot left ``None``
    simply never competes (e.g. no file cache in a pure-VM experiment).
    Extra pools — the colder compressed tiers of an N-tier chain — join
    through :meth:`TieredAllocator.register_pool` with explicit terms.
    """

    def __init__(
        self,
        frames: FramePool,
        biases: AllocationBiases | None = None,
        now_fn=None,
    ):
        super().__init__(
            frames,
            policy=biases if biases is not None else AllocationBiases(),
            now_fn=now_fn,
        )
        # Pre-seed the three classic slots in FrameOwner declaration
        # order so victim iteration (and tie-breaking) is stable and
        # identical to the historical three-pool implementation.
        for owner in FrameOwner:
            self._pools[owner] = None
            self._labels[owner] = owner.value
            self._terms[owner] = self.policy.terms_for(owner)
            self.counters.victims[owner.value] = 0

    @property
    def biases(self) -> AllocationBiases:
        """The three-pool trading policy (kept for introspection)."""
        return self.policy

    def register(self, owner: FrameOwner, pool: MemoryPool) -> None:
        """Attach the pool that manages ``owner``'s frames."""
        self._pools[owner] = pool
