"""Demand paging through the compressed-memory tier chain.

The Section 4.1 flow, verbatim from the paper:

* "LRU pages are compressed to make room for new pages.  The compressed
  pages are retained in memory for a period of time";
* "If not all pages fit in memory, even with some compressed, the LRU
  compressed pages are written to backing store" (the cleaner and the
  cache's shrink path, batched through the fragment store);
* on a fault, "the VM system checks to see whether the page is compressed
  in memory or on the backing store.  If it is on backing store, it is
  first brought into memory and stored in the compression cache, then it
  is decompressed ...  The compressed copy in memory can be freed at any
  time, since there is already a copy on backing store."

Plus the two accelerations the paper describes:

* the 4:3 threshold — pages that don't compress are routed to the
  ordinary uncompressed swap, and the compression time is charged anyway
  ("wasted effort");
* colocated prefetch — a fragment-store read transfers whole file blocks,
  and every other compressed page in those blocks can enter the cache for
  free I/O ("multiple pages can be obtained with a single read").

The paper's single compression cache generalizes here to a
:class:`~repro.tiers.chain.TierChain`: evictions compress into the
warmest tier, tier cleaners demote dirty pages cold-ward (recompressing
with the colder tier's kernel), the terminal tier's write-outs reach the
fragment store, and faults are served from the warmest tier holding the
page.  A one-tier chain — the default configuration — follows exactly
the call sequence of the original single-cache implementation.
"""

from __future__ import annotations

from ..ccache.allocator import ThreeWayAllocator
from ..compression.base import CompressionResult
from ..faults.errors import (
    FragmentChecksumError,
    IORetriesExhausted,
    MissingFragmentError,
)
from ..mem.frames import FramePool
from ..mem.page import PageId, PageState
from ..mem.pagetable import PageTableEntry
from ..mem.segment import AddressSpace
from ..sim.costs import CostModel
from ..sim.ledger import Ledger, TimeCategory
from ..tiers.chain import Rejected, TierChain
from ..tiers.compressed import CompressedTier
from .faults import FaultSource
from .system import BaseVM

#: Which backing store holds the page's saved version.
_STORE_FRAG = "frag"
_STORE_RAW = "raw"

#: Bound on colocated pages one fault's block read admits.
MAX_PREFETCH_PAGES = 16


class CompressedVM(BaseVM):
    """VM system with the compressed tier chain as intermediate levels.

    Args:
        chain: the ordered compressed tiers over the fragment store,
            and the raw page path for pages failing the 4:3 threshold;
            a one-tier chain reproduces the paper's design.
        prefetch_colocated: admit other compressed pages transferred by
            the same block read into the (coldest) cache, at most
            :data:`MAX_PREFETCH_PAGES` per fault.
        paranoid: verify every decompression round trip (slow).
    """

    def __init__(
        self,
        address_space: AddressSpace,
        frames: FramePool,
        allocator: ThreeWayAllocator,
        ledger: Ledger,
        costs: CostModel,
        chain: TierChain,
        min_resident_frames: int = 2,
        prefetch_colocated: bool = True,
        paranoid: bool = False,
    ):
        super().__init__(
            address_space, frames, allocator, ledger, costs,
            min_resident_frames, paranoid, chain.raw,
        )
        self.chain = chain
        self.tiers = chain.tiers
        self.fragstore = chain.fragstore
        self.prefetch_colocated = prefetch_colocated
        # Only the terminal tier's write-outs reach the backing store;
        # warmer tiers' "write-outs" are demotions and must not update
        # per-page store versions.
        chain.coldest.cache.written_callback = self._note_written_to_store

    @property
    def sampler(self):
        """The warmest tier's sampler (the eviction-path compressor).

        A property so tests that swap ``vm.sampler`` for an instrumented
        or misbehaving compressor reach the tier the fault and eviction
        paths actually use.
        """
        return self.chain.warmest.sampler

    @sampler.setter
    def sampler(self, value) -> None:
        self.chain.warmest.sampler = value

    # ------------------------------------------------------------------
    # Fault path
    # ------------------------------------------------------------------

    def _fill(self, pte: PageTableEntry) -> FaultSource:
        page_id = pte.page_id
        page_size = self.address_space.page_size
        self._after_access_due = True

        hit = self.chain.fetch(page_id)
        if hit is not None:
            tier, payload = hit
            frame = self._obtain_frame()
            self._charge_decompress(pte, payload, tier)
            telemetry = self.telemetry
            if telemetry is not None:
                telemetry.note_tier_hit(tier.name, self.ledger.now)
            source = FaultSource.CCACHE
        elif self._valid_on_fragstore(pte):
            try:
                payload, seconds, colocated = self.chain.read_fragment(
                    page_id
                )
            except IORetriesExhausted:
                # Unrecoverable fragment (sticky corruption or permanent
                # device failure): free the bad copy so later faults
                # don't trip over it again, and re-fetch the page from
                # the authoritative copy.
                self.fragstore.free(page_id)
                self.raw.backstop_read()
                frame = self._obtain_frame()
                source = FaultSource.SWAP
            else:
                self.ledger.charge(TimeCategory.IO_READ, seconds)
                # Per Section 4.1 the page "is first brought into memory
                # and stored in the compression cache, then it is
                # decompressed".  Store payloads were compressed by the
                # coldest tier's kernel, so they readmit there.
                coldest = self.tiers[-1]
                self.ledger.charge(
                    TimeCategory.COPY, self.costs.copy_seconds(len(payload))
                )
                coldest.cache.insert(
                    page_id,
                    payload,
                    dirty=False,
                    now=self.ledger.now,
                    on_backing_store=True,
                    content_version=pte.content.version,
                )
                frame = self._obtain_frame()
                self._charge_decompress(pte, payload, coldest)
                if self.prefetch_colocated:
                    self._prefetch(colocated)
                source = FaultSource.FRAGSTORE
        elif self._valid_on_swap(pte):
            self._read_raw(pte)
            frame = self._obtain_frame()
            source = FaultSource.SWAP
        else:
            frame = self._obtain_frame()
            self.ledger.charge(
                TimeCategory.COPY, self.costs.copy_seconds(page_size)
            )
            source = FaultSource.ZERO_FILL
        pte.mark_resident(frame)
        pte.dirty = False
        return source

    def _charge_decompress(
        self, pte: PageTableEntry, payload: bytes, tier: CompressedTier
    ) -> None:
        """Charge decompression of a full page with the tier's kernel;
        verify when paranoid."""
        self.chain.charge_decompress(tier)
        if self.paranoid:
            restored = tier.sampler.compressor.decompress(
                CompressionResult.from_payload(
                    payload, self.address_space.page_size
                )
            )
            if restored != pte.content.materialize():
                raise AssertionError(
                    f"decompressed data mismatch for {pte.page_id}"
                )

    def _prefetch(self, colocated) -> None:
        """Admit compressed pages carried by the same block read.

        Store payloads carry the coldest tier's encoding, so prefetched
        pages enter the coldest tier's cache.
        """
        admitted = 0
        chain = self.chain
        coldest_cache = self.tiers[-1].cache
        for page_id in colocated:
            if admitted >= MAX_PREFETCH_PAGES:
                break
            if chain.holds(page_id):
                continue
            pte = self.address_space.entry(page_id)
            if pte.state != PageState.BACKING_STORE:
                continue
            if pte.swap_handle != _STORE_FRAG:
                continue
            if pte.saved_version != pte.content.version:
                continue
            try:
                payload = self.fragstore.peek(page_id)
            except (FragmentChecksumError, MissingFragmentError):
                # Prefetch is opportunistic: skip corrupt or vanished
                # fragments and let a real fault drive recovery.
                continue
            self.ledger.charge(
                TimeCategory.COPY, self.costs.copy_seconds(len(payload))
            )
            coldest_cache.insert(
                page_id,
                payload,
                dirty=False,
                now=self.ledger.now,
                on_backing_store=True,
                content_version=pte.content.version,
            )
            pte.mark_nonresident(PageState.COMPRESSED)
            self.metrics.prefetched_pages += 1
            admitted += 1

    # ------------------------------------------------------------------
    # Eviction path
    # ------------------------------------------------------------------

    def _evict(self, pte: PageTableEntry) -> None:
        self.metrics.evictions.total += 1
        page_id = pte.page_id
        self._after_access_due = True

        # Fast drop: some tier still holds this exact version compressed.
        # Stale copies are dropped wherever they sit; a colder *current*
        # copy backing a warmer clean one is kept (it is what makes the
        # warm copy clean).
        version = pte.content.version
        fast_tier = None
        for tier in self.tiers:
            entry = tier.cache.entries.get(page_id)
            if entry is not None and entry.content_version != version:
                tier.cache.drop(page_id)  # stale compressed copy
            elif entry is not None and fast_tier is None:
                fast_tier = tier
        if fast_tier is not None:
            self._release_resident_frame(pte, PageState.COMPRESSED)
            # The page was resident (hot) until this instant; it re-enters
            # the compressed LRU as its youngest member.
            fast_tier.cache.touch_entry(page_id, self.ledger.now)
            self.metrics.evictions.ccache_fast_drops += 1
            return

        # Clean drop: a valid copy already sits on the backing store.
        if pte.saved_version == version and (
            self._valid_on_fragstore(pte) or self._valid_on_swap(pte)
        ):
            self._release_resident_frame(pte, PageState.BACKING_STORE)
            self.metrics.evictions.clean_drops += 1
            return

        content = pte.content
        data = content.materialize()
        outcome = self.chain.compress_evicted(
            data,
            self.metrics.compression,
            stable_key=content.stable_key,
            # Reuse the page's cached digest so repeat evictions of an
            # unmodified page skip the full-page hash in the memo probe.
            fingerprint=(
                None if content.stable_key is not None
                else content.fingerprint()
            ),
        )
        if not isinstance(outcome, Rejected):
            # Free the victim's frame *before* inserting so the cache
            # can grow into it without recursing through the allocator.
            self._release_resident_frame(pte, PageState.COMPRESSED)
            self.chain.admit(page_id, outcome, version)
            self.metrics.evictions.compressed_kept += 1
            return
        if outcome is Rejected.BYPASSED:
            self.metrics.evictions.bypassed_gate += 1
        else:
            # Compression time was spent and wasted (4:3 rule failed or
            # the compressor crashed).
            self.metrics.evictions.uncompressible += 1

        # Raw path: full-page write to the ordinary swap.
        if self._write_raw(pte, data):
            pte.swap_handle = _STORE_RAW
            self.fragstore.free(page_id)  # any compressed store copy is stale
        self._release_resident_frame(pte, PageState.BACKING_STORE)

    # ------------------------------------------------------------------
    # Background work
    # ------------------------------------------------------------------

    def _after_access(self) -> None:
        self.metrics.cleaner_invocations += self.chain.run_cleaners()

    # ------------------------------------------------------------------
    # Store-version bookkeeping
    # ------------------------------------------------------------------

    def _note_written_to_store(self, page_id: PageId, version: int) -> None:
        pte = self.address_space.entry(page_id)
        pte.saved_version = version
        pte.swap_handle = _STORE_FRAG
        self.raw.swap.invalidate(page_id)

    def _valid_on_fragstore(self, pte: PageTableEntry) -> bool:
        return (
            pte.swap_handle == _STORE_FRAG
            and pte.saved_version == pte.content.version
            and self.fragstore.contains(pte.page_id)
        )

    def _valid_on_swap(self, pte: PageTableEntry) -> bool:
        return (
            pte.swap_handle == _STORE_RAW
            and pte.saved_version == pte.content.version
            and self.raw.holds(pte.page_id)
        )

    def check_invariants(self) -> None:
        super().check_invariants()
        for tier in self.tiers:
            tier.cache.check_invariants()

    def drain(self) -> None:
        """Evict all resident pages and flush pending compressed writes."""
        super().drain()
        self.chain.drain()
