"""Compressed swap: fragments, batched writes, and garbage collection.

Section 4.3's implemented solution for variable-sized compressed pages:

* each compressed page is padded "to a uniform fragment size (currently
  1 Kbyte)";
* "a set of fragments, spanning several file blocks, [is written] in a
  single operation.  Currently 32 Kbytes of compressed pages are written
  at once";
* "the system is parameterized to determine whether pages are allowed to
  span file block boundaries: if they cannot, then fragmentation increases
  and the effective bandwidth for writes ... correspondingly decreases";
* the one-to-one page↔offset mapping is lost, so the store keeps an
  explicit location per page and garbage-collects obsolete copies (a page
  rewritten after modification lands at a new location);
* a fault must read whole file blocks, so a page spanning two blocks turns
  "a 4-Kbyte read into an 8-Kbyte one" — but the read also returns any
  other compressed pages wholly contained in the transferred blocks, which
  the VM may use as a prefetch when "page accesses exhibit sufficient
  locality".
"""

from __future__ import annotations

import zlib
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..counters import Counters
from ..faults.errors import MissingFragmentError
from ..mem.page import PageId
from .backing import verify_payload
from .blockfs import BlockFile, BlockFileSystem

#: Garbage fraction beyond which :meth:`FragmentStore.maybe_collect`
#: compacts the file.
GC_THRESHOLD = 0.5


@dataclass(frozen=True)
class FragmentLocation:
    """Where a compressed page lives in the compressed-swap file."""

    offset: int
    nbytes: int          # true payload length (padding stripped on read)
    padded_bytes: int    # fragment-aligned footprint
    crc32: int = 0       # checksum of the payload, verified on every read


@dataclass
class FragStoreCounters(Counters):
    """Traffic and space accounting for the compressed swap."""

    pages_put: int = 0
    pages_got: int = 0
    batch_flushes: int = 0
    padding_bytes: int = 0
    spanning_skips: int = 0       # gaps inserted when spanning is disabled
    garbage_bytes_created: int = 0
    gc_runs: int = 0
    gc_bytes_moved: int = 0


class FragmentStore:
    """Backing store for variable-sized compressed pages.

    Args:
        fs: file system holding the compressed-swap file.
        fragment_size: padding granularity; the paper uses 1 KByte.
        batch_bytes: bytes of compressed pages written per operation; the
            paper uses 32 KBytes.
        allow_spanning: may a page cross a file-block boundary?
        gc_min_bytes: don't bother collecting files smaller than this.
        resilience: :class:`~repro.faults.degrade.ResilienceCounters` to
            count checksum verifications and failures in; ``None`` (the
            default) skips all resilience accounting.
        injector: :class:`~repro.faults.injectors.FaultInjector` whose
            ``corrupt_fragment`` hook may bit-flip payloads on read;
            ``None`` disables injection entirely.
    """

    def __init__(
        self,
        fs: BlockFileSystem,
        fragment_size: int = 1024,
        batch_bytes: int = 32768,
        allow_spanning: bool = True,
        gc_min_bytes: int = 1 << 20,
        resilience=None,
        injector=None,
    ):
        if fragment_size <= 0 or fs.block_size % fragment_size:
            raise ValueError(
                f"fragment size {fragment_size} must divide the block size "
                f"{fs.block_size}"
            )
        if batch_bytes < fragment_size:
            raise ValueError("batch must hold at least one fragment")
        self.fs = fs
        self.fragment_size = fragment_size
        self.batch_bytes = batch_bytes
        self.allow_spanning = allow_spanning
        self.gc_min_bytes = gc_min_bytes
        self.counters = FragStoreCounters()
        self.resilience = resilience
        self.injector = injector
        #: Incremented by every collection; :class:`MissingFragmentError`
        #: carries it so callers can tell "reclaimed" from "never written".
        self.gc_generation = 0
        #: Payloads damaged in the medium itself (sticky corruption):
        #: re-reads keep returning the damaged bytes until the page is
        #: freed or rewritten.  Only ever populated by an injector.
        self._sticky_corrupt: Dict[PageId, bytes] = {}
        self._file: BlockFile = fs.open("cswap")
        self._locations: Dict[PageId, FragmentLocation] = {}
        self._append_offset = 0
        self._garbage_bytes = 0
        self._batch_start = 0
        self._batch_buf = bytearray()
        # Offset-ordered index over the live locations, maintained
        # incrementally so the read path never scans every page:
        #   _offset_index: sorted live offsets (append-only between GCs —
        #       the append offset is monotonic — so puts are O(1) and only
        #       frees pay a bisect + list deletion);
        #   _page_at: offset -> page holding it (offsets are unique);
        #   _put_seq: page -> monotone insertion stamp, reproducing the
        #       store-order the colocated-prefetch list is defined in.
        self._offset_index: List[int] = []
        self._page_at: Dict[int, PageId] = {}
        self._put_seq: Dict[PageId, int] = {}
        self._next_seq = 0
        self._live_padded_bytes = 0

    # ------------------------------------------------------------------
    # Space accounting
    # ------------------------------------------------------------------

    @property
    def live_bytes(self) -> int:
        """Padded footprint of all current pages (kept incrementally)."""
        return self._live_padded_bytes

    @property
    def file_bytes(self) -> int:
        """Current extent of the compressed-swap file (including batch)."""
        return self._append_offset

    @property
    def live_pages(self) -> int:
        """Number of pages with a current compressed copy in the file."""
        return len(self._locations)

    @property
    def garbage_fraction(self) -> float:
        """Fraction of the file occupied by obsolete or skipped bytes."""
        if self._append_offset == 0:
            return 0.0
        return self._garbage_bytes / self._append_offset

    def contains(self, page_id: PageId) -> bool:
        """True when a current compressed copy of the page exists."""
        return page_id in self._locations

    def location(self, page_id: PageId) -> Optional[FragmentLocation]:
        """Current location of a page, if any (diagnostics / tests)."""
        return self._locations.get(page_id)

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------

    def put(self, page_id: PageId, payload: bytes) -> float:
        """Stage a compressed page for write-out; returns seconds charged.

        The page joins the current batch immediately (and is durable for
        simulation purposes once :meth:`flush` runs); time is only charged
        when a full batch is flushed.
        """
        if not payload:
            raise ValueError("refusing to store an empty compressed page")
        self.free(page_id)

        padded = -(-len(payload) // self.fragment_size) * self.fragment_size
        block_size = self.fs.block_size
        if not self.allow_spanning:
            room_in_block = block_size - self._append_offset % block_size
            if padded > room_in_block:
                skip = room_in_block % block_size
                if skip:
                    self._batch_buf += bytes(skip)
                    self._append_offset += skip
                    self._garbage_bytes += skip
                    self.counters.spanning_skips += 1
                    self.counters.garbage_bytes_created += skip

        offset = self._append_offset
        location = FragmentLocation(
            offset, len(payload), padded, zlib.crc32(payload)
        )
        self._locations[page_id] = location
        # The append offset is monotonic, so a plain append keeps the
        # index sorted; insort only runs in the (never-taken today)
        # case of a rewound offset, as cheap insurance.
        index = self._offset_index
        if not index or offset > index[-1]:
            index.append(offset)
        else:  # pragma: no cover - offsets never rewind outside GC
            insort(index, offset)
        self._page_at[offset] = page_id
        self._put_seq[page_id] = self._next_seq
        self._next_seq += 1
        self._live_padded_bytes += padded
        self._batch_buf += payload
        self._batch_buf += bytes(padded - len(payload))
        self._append_offset += padded
        self.counters.pages_put += 1
        self.counters.padding_bytes += padded - len(payload)

        if len(self._batch_buf) >= self.batch_bytes:
            return self.flush()
        return 0.0

    def flush(self) -> float:
        """Write the pending batch in a single operation; returns seconds."""
        if not self._batch_buf:
            return 0.0
        seconds = self.fs.write(
            self._file, self._batch_start, bytes(self._batch_buf)
        )
        self._batch_start = self._append_offset
        self._batch_buf.clear()
        self.counters.batch_flushes += 1
        return seconds

    def free(self, page_id: PageId) -> None:
        """Invalidate the stored copy of ``page_id`` (it became garbage)."""
        old = self._locations.pop(page_id, None)
        if self._sticky_corrupt:
            self._sticky_corrupt.pop(page_id, None)
        if old is not None:
            self._garbage_bytes += old.padded_bytes
            self.counters.garbage_bytes_created += old.padded_bytes
            index = self._offset_index
            del index[bisect_left(index, old.offset)]
            del self._page_at[old.offset]
            del self._put_seq[page_id]
            self._live_padded_bytes -= old.padded_bytes

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------

    def get(self, page_id: PageId) -> Tuple[bytes, float, List[PageId]]:
        """Fetch a compressed page.

        Returns (payload, seconds, colocated) where ``colocated`` lists the
        other live pages whose bytes were wholly contained in the file
        blocks this read transferred — candidates for prefetching.
        """
        location = self._locations.get(page_id)
        if location is None:
            raise MissingFragmentError(page_id, self.gc_generation)

        if location.offset >= self._batch_start:
            # Still in the unflushed batch: serve from the staging buffer.
            lo = location.offset - self._batch_start
            payload = bytes(
                memoryview(self._batch_buf)[lo : lo + location.nbytes]
            )
            payload = self._verify(page_id, location, payload, 0.0)
            self.counters.pages_got += 1
            return payload, 0.0, []

        block_size = self.fs.block_size
        aligned_start = (location.offset // block_size) * block_size
        end = location.offset + location.nbytes
        aligned_end = -(-end // block_size) * block_size
        data, seconds = self.fs.read(
            self._file, aligned_start, aligned_end - aligned_start
        )
        lo = location.offset - aligned_start
        payload = data[lo : lo + location.nbytes]
        payload = self._verify(page_id, location, payload, seconds)
        self.counters.pages_got += 1

        # Other live pages wholly contained in the transferred blocks.
        # Their offsets fall in [aligned_start, limit), so the sorted
        # offset index narrows the scan to the handful of candidate
        # fragments instead of every stored page; the result is ordered
        # by put sequence, matching the store-order the full dict scan
        # used to produce.
        limit = aligned_end
        if self._batch_start < limit:
            limit = self._batch_start
        index = self._offset_index
        page_at = self._page_at
        locations = self._locations
        colocated = []
        for i in range(
            bisect_left(index, aligned_start), bisect_left(index, limit)
        ):
            other = page_at[index[i]]
            if other != page_id and (
                index[i] + locations[other].nbytes <= limit
            ):
                colocated.append(other)
        if len(colocated) > 1:
            colocated.sort(key=self._put_seq.__getitem__)
        return payload, seconds, colocated

    def peek(self, page_id: PageId) -> bytes:
        """Return a page's payload without charging I/O (prefetch use)."""
        location = self._locations.get(page_id)
        if location is None:
            raise MissingFragmentError(page_id, self.gc_generation)
        if location.offset >= self._batch_start:
            lo = location.offset - self._batch_start
            # memoryview slicing: one copy into the result, not two.
            payload = bytes(
                memoryview(self._batch_buf)[lo : lo + location.nbytes]
            )
        else:
            payload = self.fs.peek(
                self._file, location.offset, location.nbytes
            )
        return self._verify(page_id, location, payload, 0.0)

    _verify = verify_payload

    # ------------------------------------------------------------------
    # Garbage collection
    # ------------------------------------------------------------------

    def collect_due(self) -> bool:
        """Whether an unforced :meth:`maybe_collect` would compact."""
        return (self._append_offset >= self.gc_min_bytes
                and self.garbage_fraction > GC_THRESHOLD)

    def maybe_collect(self, force: bool = False) -> float:
        """Compact the file when garbage dominates; returns seconds charged.

        The collector reads the whole file once, rewrites the live pages
        contiguously from offset zero, and truncates — one large read and
        one large write, the same streaming pattern an LFS cleaner uses.
        """
        if not force and not self.collect_due():
            return 0.0
        seconds = self.flush()

        # The offset index is already sorted, so the collector walks it
        # directly instead of re-sorting every live location.
        live = [
            (self._page_at[offset], self._locations[self._page_at[offset]])
            for offset in self._offset_index
        ]
        if not live:
            self.fs.truncate(self._file, 0)
            self._append_offset = 0
            self._batch_start = 0
            self._garbage_bytes = 0
            self.counters.gc_runs += 1
            self.gc_generation += 1
            return seconds

        old_extent = self._append_offset
        data, read_seconds = self.fs.read(self._file, 0, old_extent)
        seconds += read_seconds

        compacted = bytearray()
        new_locations: Dict[PageId, FragmentLocation] = {}
        block_size = self.fs.block_size
        new_garbage = 0
        for page_id, loc in live:
            offset = len(compacted)
            if not self.allow_spanning:
                room = block_size - offset % block_size
                if loc.padded_bytes > room:
                    gap = room % block_size
                    compacted += bytes(gap)
                    new_garbage += gap
                    offset = len(compacted)
            new_locations[page_id] = FragmentLocation(
                offset, loc.nbytes, loc.padded_bytes, loc.crc32
            )
            compacted += data[loc.offset : loc.offset + loc.nbytes]
            compacted += bytes(loc.padded_bytes - loc.nbytes)

        self._locations = new_locations
        # Rebuild the offset index for the compacted layout.  Replacing
        # ``_locations`` re-orders its iteration to ascending offset, so
        # the put stamps are reissued in that same order — keeping the
        # colocated-prefetch ordering identical to a scan of the dict.
        self._offset_index = [
            loc.offset for loc in new_locations.values()
        ]
        self._page_at = {
            loc.offset: pid for pid, loc in new_locations.items()
        }
        self._put_seq = {}
        for pid in new_locations:
            self._put_seq[pid] = self._next_seq
            self._next_seq += 1
        self._append_offset = len(compacted)
        self._garbage_bytes = new_garbage
        self.counters.gc_runs += 1
        self.gc_generation += 1
        self.counters.gc_bytes_moved += len(compacted)
        # The compacted image is the staged batch until its write has
        # returned: a failed write leaves the file in an unknown state,
        # but every page reads from the batch and the next flush writes
        # the same bytes again, so the collection itself needs no redo.
        self._batch_start = 0
        self._batch_buf = compacted
        try:
            seconds += self.fs.write(self._file, 0, bytes(compacted))
        finally:
            self.fs.truncate(self._file, len(compacted))
        self._batch_start = len(compacted)
        self._batch_buf = bytearray()
        return seconds
