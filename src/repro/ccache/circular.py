"""The compression cache: a variable-sized circular buffer of compressed pages.

Section 4.2's final design: "memory for the compression cache is now
treated as a variable-sized circular buffer.  Physical pages are mapped
into the kernel's virtual address space, one after another ... When VM
pages are compressed, they are compressed directly into the first unused
region within the compression cache, following the last page that had
been added to the cache."  Compressed pages therefore pack densely and may
straddle physical-frame boundaries; a frame can only be reclaimed when no
live compressed page overlaps it.

This implementation models the buffer as a monotonically growing byte
space (wrap-around in the kernel's virtual window is just address reuse,
so monotonic offsets are equivalent and simpler).  Frame ``i`` covers
bytes ``[i * page_size, (i + 1) * page_size)``.  Per Figure 2, frames are
CLEAN (all contained pages unmodified or written out), DIRTY, NEW (the
tail frame still being filled), or FREE (unmapped slots).

Frames are taken from the shared :class:`FramePool` and handed back as
soon as they hold no live data; "pages are ... normally removed from the
other end.  (They may be removed from the middle if no clean pages are
available at the oldest end.)" — :meth:`shrink_one` implements exactly
that preference.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, Optional, Tuple

from ..counters import Counters
from ..faults.errors import PagingFaultError
from ..faults.retry import ResilientIO, RetryPolicy
from ..mem.frames import FrameOwner, FramePool
from ..mem.page import PageId
from ..sim.ledger import Ledger, TimeCategory
from ..storage.backing import WriteOutTarget
from .header import CompressedPageHeader, SlotState

#: Called when the cache needs a physical frame and the pool is empty;
#: must free one up (possibly by shrinking another consumer) and return it.
FrameProvider = Callable[[FrameOwner], int]


@dataclass
class _Entry:
    header: CompressedPageHeader
    payload: bytes
    offset: int
    #: Content version the payload encodes; lets the VM recognize that an
    #: unmodified resident page still has a valid compressed copy here.
    content_version: int = -1

    @property
    def end(self) -> int:
        return self.offset + self.header.footprint


@dataclass
class _FrameSlot:
    physical_frame: int
    #: Live pages overlapping this frame, as an insertion-ordered dict
    #: used as an ordered set.  The buffer tail only grows, so pages are
    #: registered in ascending-offset order — iteration *is* offset
    #: order, and eviction needs no per-slot sort.
    pages: Dict[PageId, None] = field(default_factory=dict)
    #: Count of dirty entries overlapping this frame (kept incrementally
    #: so cleaner scheduling stays O(1) per fault).
    dirty_pages: int = 0


@dataclass
class CacheCounters(Counters):
    """Compression-cache event counters."""

    inserts: int = 0
    fetch_hits: int = 0
    drops: int = 0
    frames_mapped: int = 0
    frames_released: int = 0
    evicted_dirty_pages: int = 0
    evicted_clean_pages: int = 0
    cleaned_pages: int = 0


class CompressionCache:
    """In-memory store of compressed pages, between VM and backing store.

    Args:
        frames: the machine's shared physical frame pool.
        fragstore: where dirty pages are written out — the backing
            store, or a demotion sink into the next-colder tier.
        ledger: where write-out I/O time is charged.
        page_size: physical frame size in bytes.
        frame_provider: allocator callback used when the pool is empty.
        max_frames: cap on mapped frames.  ``None`` (the default) is the
            paper's variable-size design governed by the global allocator;
            a number reproduces the original fixed-size prototype of
            Section 4.2.
        retry: the :class:`~repro.faults.retry.ResilientIO` a failed
            shrink-path write-out is retried under, and whose counters
            take the cleaner's re-queues (a cache built on its own makes
            a default one).
    """

    def __init__(
        self,
        frames: FramePool,
        fragstore: WriteOutTarget,
        ledger: Ledger,
        page_size: int = 4096,
        frame_provider: Optional[FrameProvider] = None,
        max_frames: Optional[int] = None,
        retry=None,
    ):
        if max_frames is not None and max_frames < 1:
            raise ValueError(f"max_frames must be >= 1: {max_frames}")
        self.frames = frames
        self.fragstore = fragstore
        self.ledger = ledger
        self.page_size = page_size
        self.frame_provider = frame_provider
        self.max_frames = max_frames
        self.retry = retry or ResilientIO(RetryPolicy(), ledger)
        self.counters = CacheCounters()
        self._entries: Dict[PageId, _Entry] = {}
        self._frames: Dict[int, _FrameSlot] = {}
        self._tail = 0
        self._dirty_entries = 0
        self._dirty_frames = 0
        self._live_bytes = 0
        # True while shrink_one is running.  In an N-tier chain a shrink's
        # write-out demotes into the next tier, whose growth can re-enter
        # the allocator and pick this cache again; the guard turns that
        # re-entrant shrink into a refusal (the allocator then picks
        # another pool).  Single-tier write-outs go straight to the
        # fragment store and never recurse, so the guard is inert there.
        self._in_shrink = False
        # FIFO of potentially dirty pages for the cleaner (lazy deletion:
        # stale ids are skipped when popped).
        self._dirty_fifo: deque = deque()
        #: Invoked as ``callback(page_id, content_version)`` whenever an
        #: entry's payload reaches the backing store (cleaner or eviction);
        #: the VM uses it to keep per-page store versions current.
        self.written_callback: Optional[Callable[[PageId, int], None]] = None
        #: Hotness predicate consulted by :meth:`clean_pages`; when it
        #: returns True the dirty page is deferred to the back of the
        #: FIFO (bounded per round by :attr:`hot_skip_budget`) so cold
        #: pages sink first.  ``None`` (the default) keeps the historical
        #: strict-FIFO order byte-for-byte.
        self.hot_filter: Optional[Callable[[PageId], bool]] = None
        #: Max hot-page deferrals per clean_pages round — the bound that
        #: guarantees cleaner progress even when every dirty page is hot.
        self.hot_skip_budget = 8

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __contains__(self, page_id: PageId) -> bool:
        return page_id in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def nframes(self) -> int:
        """Physical frames currently mapped into the cache."""
        return len(self._frames)

    @property
    def compressed_pages(self) -> int:
        """Virtual pages currently held compressed."""
        return len(self._entries)

    @property
    def live_bytes(self) -> int:
        """Bytes of live compressed data, headers included."""
        return self._live_bytes

    def is_dirty(self, page_id: PageId) -> bool:
        """True when the cached copy holds data not on backing store."""
        return self._entries[page_id].header.dirty

    def entry_version(self, page_id: PageId) -> int:
        """Content version encoded by the cached payload."""
        return self._entries[page_id].content_version

    def oldest_entry_age(self, now: float) -> Optional[float]:
        """Age of the oldest compressed page (insertion-ordered), or None."""
        for entry in self._entries.values():
            return now - entry.header.inserted_at
        return None

    def coldest_age(self, now: float) -> Optional[float]:
        """MemoryPool protocol: compressed pages age from insertion."""
        return self.oldest_entry_age(now)

    def slot_state(self, frame_index: int) -> SlotState:
        """Figure 2 state of one slot in the cache's address range."""
        slot = self._frames.get(frame_index)
        if slot is None:
            return SlotState.FREE
        if frame_index == self._tail_frame_index():
            if not slot.pages:
                return SlotState.NEW
        if not slot.pages:
            return SlotState.CLEAN
        # The per-slot dirty count is maintained incrementally, so no
        # per-page header scan is needed here.
        if slot.dirty_pages:
            return SlotState.DIRTY
        return SlotState.CLEAN

    def slot_states(self) -> Dict[int, SlotState]:
        """States of all slots from the oldest mapped frame to the tail."""
        if not self._frames:
            return {}
        # Frames are mapped at monotonically increasing indexes (the tail
        # only grows) and deletions preserve dict order, so the first key
        # is the minimum — no O(n) min() scan.
        lo = next(iter(self._frames))
        hi = self._tail_frame_index()
        return {i: self.slot_state(i) for i in range(lo, hi + 1)}

    def iter_entries(self) -> Iterator[CompressedPageHeader]:
        """Headers of live entries, oldest first."""
        for entry in self._entries.values():
            yield entry.header

    # ------------------------------------------------------------------
    # Insert / fetch
    # ------------------------------------------------------------------

    def insert(
        self,
        page_id: PageId,
        payload: bytes,
        dirty: bool,
        now: float,
        on_backing_store: bool = False,
        content_version: int = -1,
    ) -> None:
        """Append a compressed page at the tail of the buffer.

        The caller has already charged compression time; this method only
        manages space (and any I/O forced by making space).
        """
        if page_id in self._entries:
            raise ValueError(f"{page_id} is already in the compression cache")
        if not payload:
            raise ValueError("refusing to cache an empty payload")
        header = CompressedPageHeader(
            page_id=page_id,
            compressed_size=len(payload),
            dirty=dirty,
            inserted_at=now,
            on_backing_store=on_backing_store,
        )
        # Growing the cache may recurse: _ensure_frame asks the allocator
        # for a frame, the allocator may shrink the VM, and the VM's
        # eviction path compresses its victim into this cache, advancing
        # the tail.  Re-read the tail after every acquisition and only
        # place the entry once it is stable.  Most inserts land entirely
        # within frames that are already mapped — that case cannot move
        # the tail, so it skips the retry loop.
        page_size = self.page_size
        frames = self._frames
        start = self._tail
        end = start + header.footprint
        first = start // page_size
        last = (end - 1) // page_size
        if not (first in frames and (last == first or last in frames)):
            for _ in range(1000):
                start = self._tail
                end = start + header.footprint
                for index in range(
                    start // page_size, (end - 1) // page_size + 1
                ):
                    self._ensure_frame(index)
                if self._tail == start:
                    break
            else:
                raise RuntimeError(
                    "compression cache could not find a stable tail position"
                )
        entry = _Entry(
            header=header,
            payload=payload,
            offset=start,
            content_version=content_version,
        )
        self._entries[page_id] = entry
        self._live_bytes += header.footprint
        frames = self._frames
        if dirty:
            self._dirty_entries += 1
            self._dirty_fifo.append(page_id)
            for index in self._overlapped(entry):
                slot = frames[index]
                slot.pages[page_id] = None
                slot.dirty_pages += 1
                if slot.dirty_pages == 1:
                    self._dirty_frames += 1
        else:
            for index in self._overlapped(entry):
                frames[index].pages[page_id] = None
        self._tail = end
        self.counters.inserts += 1

    def fetch(
        self,
        page_id: PageId,
        remove: bool = True,
        now: Optional[float] = None,
    ) -> Tuple[bytes, bool]:
        """Retrieve a compressed page; returns (payload, was_dirty).

        With ``remove`` (the default) the entry leaves the cache — the
        usual fault path, where the page is about to exist uncompressed.
        A kept entry is refreshed to the hot end of the compressed LRU
        (pass ``now``): the paper writes "the *LRU* compressed pages ...
        to backing store", so a hit must count as a touch.
        """
        entry = self._entries[page_id]
        self.counters.fetch_hits += 1
        payload = entry.payload
        dirty = entry.header.dirty
        if remove:
            self._unlink(page_id)
        elif now is not None:
            self.touch_entry(page_id, now)
        return payload, dirty

    def touch_entry(self, page_id: PageId, now: float) -> None:
        """Move a cached page to the hot end of the compressed LRU."""
        entry = self._entries.pop(page_id)
        entry.header.inserted_at = now
        self._entries[page_id] = entry

    def drop(self, page_id: PageId) -> None:
        """Discard a cached page without reading it (e.g. process exit,
        or freeing a clean copy that also lives on backing store)."""
        if page_id not in self._entries:
            raise KeyError(f"{page_id} is not in the compression cache")
        self._unlink(page_id)
        self.counters.drops += 1

    # ------------------------------------------------------------------
    # Cleaning and shrinking
    # ------------------------------------------------------------------

    def dirty_pages(self) -> int:
        """Number of cached pages holding data not on backing store."""
        return self._dirty_entries

    def reclaimable_frames(self) -> int:
        """Frames (excluding the tail) containing no dirty data."""
        count = len(self._frames) - self._dirty_frames
        tail_slot = self._frames.get(self._tail_frame_index())
        if tail_slot is not None and tail_slot.dirty_pages == 0:
            count -= 1  # the tail frame is never reclaimable
        return count

    def clean_pages(self, max_pages: int) -> int:
        """Write out up to ``max_pages`` of the oldest dirty data.

        This is the kernel cleaner thread's work: it turns dirty slots
        clean so they are "ready for reclamation".  Time is charged to
        the CLEANER category.  Returns pages written.
        """
        written = 0
        hot_filter = self.hot_filter
        skips_left = self.hot_skip_budget if hot_filter is not None else 0
        while written < max_pages and self._dirty_fifo:
            page_id = self._dirty_fifo.popleft()
            entry = self._entries.get(page_id)
            if entry is None or not entry.header.dirty:
                continue  # stale FIFO entry (page removed or cleaned)
            if skips_left and hot_filter(page_id):
                # Hotness-aware demotion: a page still in active use is
                # sent to the back of the queue so a cold page sinks in
                # its place.
                self._dirty_fifo.append(page_id)
                skips_left -= 1
                continue
            try:
                seconds = self.fragstore.put(page_id, entry.payload)
            except PagingFaultError as exc:
                # The write-out failed (an injected device fault inside
                # the batch flush).  Charge the failed attempt, put the
                # page back at the *front* of the FIFO so it stays the
                # cleaner's first candidate, and stop this round — the
                # dirty data is not lost, just not yet durable.
                self.ledger.charge(TimeCategory.CLEANER, exc.seconds)
                self._dirty_fifo.appendleft(page_id)
                self.retry.resilience.cleaner_requeues += 1
                break
            self.ledger.charge(TimeCategory.CLEANER, seconds)
            self._mark_entry_clean(entry)
            entry.header.on_backing_store = True
            if self.written_callback is not None:
                self.written_callback(page_id, entry.content_version)
            written += 1
        self.counters.cleaned_pages += written
        return written

    def shrink_one(self) -> Optional[float]:
        """Release one mapped frame back to the pool.

        Prefers the oldest all-clean frame; falls back to the oldest
        frame overall, writing its dirty pages to backing store first.
        Returns 0.0 on success (I/O already charged to the ledger), or
        None when nothing can be released (at most the tail frame left).
        """
        if self._in_shrink:
            return None  # re-entrant shrink (nested demotion): refuse
        victim = self._pick_victim_frame()
        if victim is None:
            return None
        self._in_shrink = True
        try:
            slot = self._frames[victim]
            # Registration order is ascending offset (the tail only
            # grows), so a snapshot of the ordered dict replaces the
            # per-slot sort.
            for page_id in list(slot.pages):
                entry = self._entries.get(page_id)
                if entry is None:
                    continue  # unlinked by a nested operation mid-shrink
                if entry.header.dirty:
                    seconds = self._put_resilient(page_id, entry.payload)
                    self.ledger.charge(TimeCategory.IO_WRITE, seconds)
                    self._mark_entry_clean(entry)
                    entry.header.on_backing_store = True
                    if self.written_callback is not None:
                        self.written_callback(page_id, entry.content_version)
                    self.counters.evicted_dirty_pages += 1
                else:
                    self.counters.evicted_clean_pages += 1
                if page_id in self._entries:
                    self._unlink(page_id)
            if victim in self._frames:
                # _unlink releases emptied frames automatically; if the
                # victim survived (it was empty to begin with), release
                # it here.
                self._release_frame(victim)
        finally:
            self._in_shrink = False
        return 0.0

    def _put_resilient(self, page_id: PageId, payload: bytes) -> float:
        """A ``fragstore.put`` that must not fail (the shrink path owes
        the allocator a frame).  On a write fault the page is already
        staged in the store's batch — readable from there, durable at the
        next successful flush — so charge the failed attempt, retry the
        idempotent flush, and carry on either way."""
        try:
            return self.fragstore.put(page_id, payload)
        except PagingFaultError as exc:
            self.ledger.charge(TimeCategory.IO_WRITE, exc.seconds)
            return self.retry.try_call(
                self.fragstore.flush, TimeCategory.IO_WRITE
            ) or 0.0

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _tail_frame_index(self) -> int:
        return self._tail // self.page_size

    def _overlapped(self, entry: _Entry) -> range:
        return range(
            entry.offset // self.page_size,
            (entry.end - 1) // self.page_size + 1,
        )

    def _ensure_frame(self, index: int) -> None:
        if index in self._frames:
            return
        if self.max_frames is not None and len(self._frames) >= self.max_frames:
            if self._in_shrink:
                # A nested insert arrived while this cache is mid-shrink
                # (the allocator reclaimed a VM page whose eviction
                # compresses back into this tier).  Allow a temporary
                # overshoot of the cap; the in-flight shrink is already
                # rebalancing.
                pass
            elif self.shrink_one() is None:
                raise RuntimeError(
                    "fixed-size compression cache cannot grow past "
                    f"{self.max_frames} frames and has nothing to evict"
                )
        if self.frames.free_frames > 0:
            physical = self.frames.allocate(FrameOwner.COMPRESSION)
        elif self.frame_provider is not None:
            physical = self.frame_provider(FrameOwner.COMPRESSION)
        else:
            if self.shrink_one() is None:
                raise RuntimeError(
                    "compression cache cannot obtain a physical frame"
                )
            physical = self.frames.allocate(FrameOwner.COMPRESSION)
        if index in self._frames:
            # The frame provider recursed (VM eviction -> nested insert)
            # and mapped this very index with live registrations; keep
            # that slot and give the extra frame back to the pool.
            self.frames.release(physical)
            return
        self._frames[index] = _FrameSlot(physical_frame=physical)
        self.counters.frames_mapped += 1

    def _unlink(self, page_id: PageId) -> None:
        entry = self._entries.pop(page_id)
        self._live_bytes -= entry.header.footprint
        self._mark_entry_clean(entry)
        tail_index = self._tail_frame_index()
        for index in self._overlapped(entry):
            slot = self._frames.get(index)
            if slot is None:
                continue
            slot.pages.pop(page_id, None)
            if not slot.pages and index != tail_index:
                self._release_frame(index)

    def _mark_entry_clean(self, entry: _Entry) -> None:
        """Flip an entry dirty→clean, keeping incremental counters exact."""
        if not entry.header.dirty:
            return
        entry.header.dirty = False
        self._dirty_entries -= 1
        for index in self._overlapped(entry):
            slot = self._frames.get(index)
            if slot is None:
                continue
            slot.dirty_pages -= 1
            if slot.dirty_pages == 0:
                self._dirty_frames -= 1

    def _release_frame(self, index: int) -> None:
        slot = self._frames.pop(index)
        if slot.dirty_pages:
            raise AssertionError(
                f"releasing frame {index} with {slot.dirty_pages} dirty pages"
            )
        self.frames.release(slot.physical_frame)
        self.counters.frames_released += 1

    #: Bounded search depth for a clean victim frame before falling back
    #: to the oldest frame ("removed from the middle if no clean pages
    #: are available at the oldest end").
    _VICTIM_SCAN_LIMIT = 64

    def _pick_victim_frame(self) -> Optional[int]:
        tail = self._tail_frame_index()
        oldest = None
        scanned = 0
        for index in self._frames:  # insertion order == ascending index
            if index >= tail:
                # The tail frame, and past it the frames an insert in
                # progress has mapped but not yet filled.
                continue
            if oldest is None:
                oldest = index
            if self._frames[index].dirty_pages == 0:
                return index
            scanned += 1
            if scanned >= self._VICTIM_SCAN_LIMIT:
                break
        return oldest
