"""Common VM machinery: resident set, LRU replacement, touch/fault flow.

Both VM variants share this base: a set of resident pages backed by
physical frames, true-LRU replacement (the paper: "The system uses an LRU
algorithm for page replacement"), and per-access time accounting.  The
variants differ only in what happens on the two interesting edges —
evicting a victim and satisfying a fault — which subclasses implement.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from functools import partial
from typing import TYPE_CHECKING, Optional

from ..ccache.allocator import ThreeWayAllocator
from ..mem.frames import FrameOwner, FramePool
from ..mem.lru import LruList
from ..mem.page import PageId, PageState
from ..mem.pagetable import PageTableEntry
from ..mem.segment import AddressSpace
from ..sim.costs import CostModel
from ..sim.ledger import Ledger, TimeCategory
from ..sim.metrics import SimulationMetrics
from .faults import FaultSource

if TYPE_CHECKING:
    from ..pager.default import DefaultPager


class BaseVM(ABC):
    """Shared resident-set management for both VM systems.

    Args:
        address_space: the workload's segments and page contents.
        frames: the machine's physical frame pool.
        allocator: global frame arbiter; this VM registers itself as the
            ``FrameOwner.VM`` pool.
        ledger: virtual-time sink.
        costs: CPU-side cost model.
        min_resident_frames: the VM refuses to shrink below this many
            resident pages, so a process always makes forward progress.
        paranoid: verify every page that comes back (slow).
        raw: the raw page path of a VM that pages to swap itself;
            ``None`` when a pager holds it instead.
    """

    def __init__(
        self,
        address_space: AddressSpace,
        frames: FramePool,
        allocator: ThreeWayAllocator,
        ledger: Ledger,
        costs: CostModel,
        min_resident_frames: int = 2,
        paranoid: bool = False,
        raw: Optional["DefaultPager"] = None,
    ):
        if min_resident_frames < 1:
            raise ValueError(
                f"min_resident_frames must be >= 1: {min_resident_frames}"
            )
        self.address_space = address_space
        self.frames = frames
        self.allocator = allocator
        self.ledger = ledger
        self.costs = costs
        self.min_resident_frames = min_resident_frames
        self.paranoid = paranoid
        self.raw = raw
        self.metrics = SimulationMetrics()
        self._resident: LruList[PageId] = LruList()
        #: Control-plane fault telemetry (host-side accounting only —
        #: never charges the clock); ``None`` on every default machine.
        self.telemetry = None
        #: Set by a fault or an eviction: the access runs the hook once.
        self._after_access_due = False
        self._obtain_frame = partial(allocator.obtain_frame, FrameOwner.VM)
        allocator.register(FrameOwner.VM, self)

    # ------------------------------------------------------------------
    # MemoryPool protocol (for the three-way allocator)
    # ------------------------------------------------------------------

    def coldest_age(self, now: float) -> Optional[float]:
        """Age of the LRU resident page."""
        return self._resident.coldest_age(now)

    def shrink_one(self) -> Optional[float]:
        """Evict the LRU resident page and release its frame."""
        if len(self._resident) <= self.min_resident_frames:
            return None
        victim = self._resident.evict()
        self._evict(self.address_space.entry(victim))
        return 0.0

    # ------------------------------------------------------------------
    # The access path
    # ------------------------------------------------------------------

    @property
    def resident_pages(self) -> int:
        """Pages currently resident and uncompressed."""
        return len(self._resident)

    def is_resident(self, page_id: PageId) -> bool:
        """True when the page is mapped uncompressed."""
        return page_id in self._resident

    def touch(self, page_id: PageId, write: bool = False) -> None:
        """One memory reference; faults and charges time as needed."""
        metrics = self.metrics
        metrics.accesses += 1
        if write:
            metrics.write_accesses += 1
        else:
            metrics.read_accesses += 1
        ledger = self.ledger
        ledger.charge(TimeCategory.BASE, self.costs.base_access_s)

        # Fast path: a resident hit fuses the membership probe with the
        # LRU re-stamp, and a read hit never needs the page-table entry
        # at all (a resident page's PTE already exists; only the dirty
        # bit would touch it).
        if self._resident.hit(page_id, ledger.now):
            metrics.resident_hits += 1
            if write:
                self.address_space.entry(page_id).dirty = True
        else:
            pte = self.address_space.entry(page_id)
            self._fault(pte)
            if write:
                pte.dirty = True
            self._resident.touch(page_id, ledger.now)
        if self._after_access_due:
            self._after_access_due = False
            self._after_access()

    def _fault(self, pte: PageTableEntry) -> None:
        """Bring ``pte`` resident, charging trap, transfer, and CPU time."""
        ledger, faults = self.ledger, self.metrics.faults
        faults.total += 1
        fault_start = ledger.now
        ledger.charge(TimeCategory.FAULT_TRAP, self.costs.fault_trap_s)
        source = self._fill(pte)
        self.metrics.fault_latency.record(ledger.now - fault_start)
        if source is FaultSource.CCACHE:
            faults.from_ccache += 1
        elif source is FaultSource.FRAGSTORE:
            faults.from_fragstore += 1
        elif source is FaultSource.SWAP:
            faults.from_swap += 1
        else:
            faults.zero_fill += 1
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.note_fault(source.value, ledger.now)

    def _release_resident_frame(
        self, pte: PageTableEntry, new_state: PageState
    ) -> None:
        if pte.frame is None:
            raise AssertionError(f"evicting non-resident page {pte.page_id}")
        self.frames.release(pte.frame)
        pte.mark_nonresident(new_state)

    # ------------------------------------------------------------------
    # The raw page path, as a kernel VM uses it
    # ------------------------------------------------------------------

    def _read_raw(self, pte: PageTableEntry) -> None:
        """Read the page's swap copy; when that fails for good, re-fetch
        it from the paging server's authoritative copy."""
        data = self.raw.read(pte.page_id)
        if data is None:
            self.raw.backstop_read()
        elif self.paranoid and data != pte.content.materialize():
            raise AssertionError(
                f"swap returned stale data for {pte.page_id}"
            )

    def _write_raw(self, pte: PageTableEntry, data: bytes) -> bool:
        """Write the page back to swap; ``False`` when that failed for
        good and the page leaves memory unsaved (the next fault
        reconstructs it from authoritative content)."""
        saved = self.raw.write(pte.page_id, data)
        if saved:
            pte.note_saved()
        else:
            self.raw.retry.resilience.deferred_writebacks += 1
        self.metrics.evictions.raw_writes += 1
        return saved

    # ------------------------------------------------------------------
    # Subclass responsibilities
    # ------------------------------------------------------------------

    @abstractmethod
    def _fill(self, pte: PageTableEntry) -> FaultSource:
        """Make ``pte`` resident (frame allocated, data restored)."""

    @abstractmethod
    def _evict(self, pte: PageTableEntry) -> None:
        """Push a resident page out, preserving its data as required."""

    def _after_access(self) -> None:
        """Hook run after an access that set ``_after_access_due``."""

    # ------------------------------------------------------------------
    # Teardown / invariants
    # ------------------------------------------------------------------

    def drain(self) -> None:
        """Evict everything (end of run), flushing state to stable form."""
        while len(self._resident) > 0:
            victim = self._resident.evict()
            self._evict(self.address_space.entry(victim))

    def check_invariants(self) -> None:
        """Cross-checks used by the test suite (cheap, always safe)."""
        for page_id in self._resident:
            pte = self.address_space.entry(page_id)
            assert pte.state == PageState.RESIDENT, (
                f"{page_id} in resident LRU but state is {pte.state}"
            )
            assert pte.frame is not None, f"{page_id} resident without frame"
