"""The ordered tier chain the VM and pager drive.

A :class:`TierChain` holds the compressed tiers warmest-first over the
backing store, and is the one place that knows how a page enters, leaves
and drains them.  The in-kernel :class:`~repro.vm.compressed.CompressedVM`
and the user-level :class:`~repro.pager.compression.CompressionPager`
call the same verbs — :meth:`~TierChain.compress_evicted` and
:meth:`~TierChain.admit` on eviction, :meth:`~TierChain.fetch`,
:meth:`~TierChain.read_fragment` and
:meth:`~TierChain.charge_decompress` on a fault,
:meth:`~TierChain.run_cleaners` after one, :meth:`~TierChain.drain` at
the end — and keep only what differs between them: who owns the page's
frame and version, and what a transfer that failed for good means
(``docs/tiers.md`` has the table).  With one compressed tier the chain
degenerates to the paper's design.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING, List, Optional, Tuple, Union

from ..compression.base import CompressionError, CompressionResult
from ..compression.stats import CompressionStats
from ..faults.errors import (
    FragmentChecksumError,
    IORetriesExhausted,
    PagingFaultError,
)
from ..mem.page import PageId
from ..sim.costs import CostModel
from ..sim.ledger import TimeCategory
from ..storage.backing import BackingStore
from .compressed import CompressedTier

if TYPE_CHECKING:
    from ..pager.default import DefaultPager


class Rejected(Enum):
    """Why :meth:`TierChain.compress_evicted` kept no result; either way
    the caller writes the page raw."""

    #: Compressed (and charged), but failed the 4:3 rule or crashed.
    UNCOMPRESSIBLE = "uncompressible"
    #: Not attempted: the gate is closed or the substrate is degraded.
    BYPASSED = "bypassed"


class TierChain:
    """Ordered compressed tiers (warmest first) over a backing store.

    ``raw`` is the raw page path for what the 4:3 rule rejects; store
    reads run under its retry wrapper and are charged to its ledger.
    ``injector`` and ``degradation`` are the fault layer's hooks; both
    are ``None`` unless the machine has a fault plan.
    """

    def __init__(
        self,
        tiers: Tuple[CompressedTier, ...],
        fragstore: BackingStore,
        raw: "DefaultPager",
        costs: CostModel,
        page_size: int,
        injector=None,
        degradation=None,
    ):
        if not tiers:
            raise ValueError("a tier chain needs at least one tier")
        names = [tier.name for tier in tiers]
        if len(set(names)) != len(names):
            raise ValueError(f"tier names must be unique, got {names}")
        self.tiers: Tuple[CompressedTier, ...] = tuple(tiers)
        self.fragstore = fragstore
        self.raw = raw
        self.retry = raw.retry
        self.ledger = raw.ledger
        self.costs = costs
        self.page_size = page_size
        self.injector = injector
        self.degradation = degradation

    @property
    def warmest(self) -> CompressedTier:
        """The tier evictions compress into."""
        return self.tiers[0]

    @property
    def coldest(self) -> CompressedTier:
        """The tier backed by the real store (readmissions land here)."""
        return self.tiers[-1]

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------

    def compress_evicted(
        self,
        data: bytes,
        stats: CompressionStats,
        stable_key: Optional[str] = None,
        fingerprint: Optional[bytes] = None,
    ) -> Union[CompressionResult, Rejected]:
        """Decide whether an evicted page enters the chain compressed.

        Returns the result to :meth:`admit` when the page compressed
        past ``stats``' threshold, else why not.  A compression that was
        attempted is charged whatever its outcome — "wasted effort", as
        the paper has it; a bypass charges nothing.
        """
        warmest = self.tiers[0]
        gate = warmest.gate
        degradation = self.degradation
        degraded = degradation is not None and degradation.degraded
        if degraded or not gate.open:
            if degraded:
                degradation.note_bypassed_eviction()
            gate.note_bypass()
            return Rejected.BYPASSED
        self.ledger.charge(
            TimeCategory.COMPRESS,
            self.costs.compress_seconds(self.page_size)
            * warmest.spec.compress_scale,
        )
        # Faults are injected here — above the sampler — so a crash or
        # pathological expansion never poisons the sampler's memo or the
        # shared kernel-result cache with bogus entries.
        injector = self.injector
        fault = injector.compressor_fault() if injector is not None else None
        result = None  # what a crash, injected or genuine, leaves
        if fault == "expand":
            # Bigger than the input: fails the 4:3 rule below on its own.
            result = CompressionResult(bytes(data) + b"\0" * 64, len(data))
        elif fault is None:
            try:
                # Only the keep decision is read from a rejected page,
                # so one its size floor already rejects is not compressed.
                result = warmest.sampler.compress(
                    data, stable_key=stable_key, fingerprint=fingerprint,
                    threshold=stats.threshold,
                )
            except CompressionError:
                pass
        if degradation is not None:
            degradation.record(fault is None and result is not None)
        if result is None:
            return Rejected.UNCOMPRESSIBLE
        kept = stats.record(self.page_size, result.compressed_size)
        gate.record(kept)
        return result if kept else Rejected.UNCOMPRESSIBLE

    def admit(
        self, page_id: PageId, result: CompressionResult, version: int
    ) -> None:
        """Insert a kept result into the warmest tier, dirty."""
        self.tiers[0].cache.insert(
            page_id,
            result.payload,
            dirty=True,
            now=self.ledger.now,
            content_version=version,
        )

    # ------------------------------------------------------------------
    # Fault
    # ------------------------------------------------------------------

    def find(self, page_id: PageId) -> Optional[CompressedTier]:
        """The warmest compressed tier holding the page, or ``None``."""
        for tier in self.tiers:
            if page_id in tier.cache:
                return tier
        return None

    def holds(self, page_id: PageId) -> bool:
        """Whether any compressed tier holds the page in memory."""
        for tier in self.tiers:
            if page_id in tier.cache:
                return True
        return False

    def fetch(
        self, page_id: PageId
    ) -> Optional[Tuple[CompressedTier, bytes]]:
        """``(tier, payload)`` from the warmest tier holding the page.

        A dirty entry's data moves to the uncompressed page; a clean
        entry stays cached — "the compressed copy in memory can be freed
        at any time, since there is already a copy on backing store" —
        making a later unmodified eviction a free drop.
        """
        tier = self.find(page_id)
        if tier is None:
            return None
        cache = tier.cache
        payload, _ = cache.fetch(
            page_id, remove=cache.is_dirty(page_id), now=self.ledger.now
        )
        return tier, payload

    def read_fragment(self, page_id: PageId):
        """The store's ``(payload, seconds, colocated)`` for the page,
        read under the retry policy.

        Raises :class:`IORetriesExhausted` when the fragment is
        unrecoverable (checksum or device errors outlasted the
        retries), after telling the degradation controller about a
        checksum that never verified.  What happens to the bad copy and
        the page is the caller's.
        """
        try:
            return self.retry.call(
                self.fragstore.get, TimeCategory.IO_READ, page_id
            )
        except IORetriesExhausted as exc:
            if (
                self.degradation is not None
                and isinstance(exc.last_error, FragmentChecksumError)
            ):
                self.degradation.record(False)
            raise

    def charge_decompress(self, tier: CompressedTier) -> None:
        """Charge decompressing one full page with ``tier``'s kernel."""
        self.ledger.charge(
            TimeCategory.DECOMPRESS,
            self.costs.decompress_seconds(self.page_size)
            * tier.spec.compress_scale,
        )

    # ------------------------------------------------------------------
    # Background work
    # ------------------------------------------------------------------

    def run_cleaners(self) -> int:
        """Pace every tier's cleaner, then let the store collect.

        Returns how many tiers cleaned.  Each tier is paced on the free
        count of the pool its cache draws from, read when its turn
        comes: a warmer tier's clean pass can move it first.
        """
        invocations = 0
        for tier in self.tiers:
            cache = tier.cache
            goal = tier.cleaner.pages_to_clean(
                free_frames=cache.frames.free_frames,
                reclaimable_frames=cache.reclaimable_frames(),
                cache_frames=cache.nframes,
            )
            if goal > 0:
                invocations += 1
                cache.clean_pages(goal)
        # Asked after every fault, so the first attempt runs bare (as
        # ``drain``'s flush does); only a failed one pays for the retry
        # wrapper.  Collection is optional work: one that fails for good
        # is skipped, and the store is asked again after the next fault.
        try:
            gc_seconds = self.fragstore.maybe_collect()
        except PagingFaultError as exc:
            self.ledger.charge(TimeCategory.GC, exc.seconds)
            gc_seconds = self.retry.try_call(
                self.fragstore.maybe_collect, TimeCategory.GC
            )
        if gc_seconds:
            self.ledger.charge(TimeCategory.GC, gc_seconds)
        return invocations

    def drain(self) -> None:
        """Push every dirty compressed page to the store and flush it.

        Tiers drain warm to cold: a warm tier's clean pass demotes its
        dirty pages into the next tier, whose own pass then pushes them
        further, until the terminal tier's write-outs reach the store.
        """
        for tier in self.tiers:
            cache = tier.cache
            # Under fault injection a clean pass can stall on a write
            # error and re-queue the page; keep going while progress is
            # possible.  Without a plan this loop runs exactly once.
            attempts = 0
            while cache.dirty_pages() and attempts < 1000:
                cache.clean_pages(cache.dirty_pages())
                attempts += 1
        try:
            seconds = self.fragstore.flush()
        except PagingFaultError as exc:
            self.ledger.charge(TimeCategory.IO_WRITE, exc.seconds)
            seconds = self.retry.try_call(
                self.fragstore.flush, TimeCategory.IO_WRITE
            )
        if seconds:
            self.ledger.charge(TimeCategory.IO_WRITE, seconds)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def compressed_pages(self) -> int:
        """Pages held compressed in memory across all tiers."""
        return sum(tier.cache.compressed_pages for tier in self.tiers)

    def mapped_frames(self) -> int:
        """Physical frames mapped by all compressed tiers."""
        return sum(tier.cache.nframes for tier in self.tiers)

    def demoted_pages(self) -> int:
        """Inter-tier demotions performed across the chain."""
        return sum(
            tier.sink.demoted_pages
            for tier in self.tiers
            if tier.sink is not None
        )

    def snapshot(self) -> List[dict]:
        """JSON-native per-tier stats, warmest first, store last.

        The store row covers the fragment store and the raw swap; it
        holds no physical frames.
        """
        rows = [tier.stats() for tier in self.tiers]
        rows.append({
            "name": "store",
            "kind": "store",
            "frames": 0,
            "pages": self.fragstore.live_pages,
            "fragstore": self.fragstore.counters.snapshot(),
            "swap": self.raw.swap.counters.snapshot(),
        })
        return rows
