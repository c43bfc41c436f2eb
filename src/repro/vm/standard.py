"""The unmodified system: classic demand paging to per-segment swap files.

"The unmodified Sprite system, which uses regular files as the backing
store, would perform two disk seeks for each fault, one to write a page
out and another to retrieve the page faulted upon." (Section 5.1)

Eviction writes the whole 4-KByte page to its fixed swap offset when no
valid backing copy exists; a fault reads the whole page back.  Anonymous
pages (heap/BSS) have no backing copy until their first write-out, so
their first eviction always pays a page-out — the behaviour that makes
even the read-only thrasher do I/O.
"""

from __future__ import annotations

from ..ccache.allocator import ThreeWayAllocator
from ..mem.frames import FramePool
from ..mem.page import PageState
from ..mem.pagetable import PageTableEntry
from ..mem.segment import AddressSpace
from ..pager.default import DefaultPager
from ..sim.costs import CostModel
from ..sim.ledger import Ledger, TimeCategory
from .faults import FaultSource
from .system import BaseVM


class StandardVM(BaseVM):
    """Demand paging with true-LRU replacement and no compression."""

    def __init__(
        self,
        address_space: AddressSpace,
        frames: FramePool,
        allocator: ThreeWayAllocator,
        ledger: Ledger,
        costs: CostModel,
        raw: DefaultPager,
        min_resident_frames: int = 2,
        paranoid: bool = False,
    ):
        super().__init__(
            address_space, frames, allocator, ledger, costs,
            min_resident_frames, paranoid, raw,
        )

    def _has_valid_copy(self, pte: PageTableEntry) -> bool:
        return (
            self.raw.holds(pte.page_id)
            and pte.saved_version == pte.content.version
        )

    def _fill(self, pte: PageTableEntry) -> FaultSource:
        frame = self._obtain_frame()
        if self._has_valid_copy(pte):
            self._read_raw(pte)
            source = FaultSource.SWAP
        else:
            # First touch: zero-fill (or demand-create workload contents).
            self.ledger.charge(
                TimeCategory.COPY,
                self.costs.copy_seconds(self.address_space.page_size),
            )
            source = FaultSource.ZERO_FILL
        pte.mark_resident(frame)
        pte.dirty = False
        return source

    def _evict(self, pte: PageTableEntry) -> None:
        self.metrics.evictions.total += 1
        if self._has_valid_copy(pte):
            self.metrics.evictions.clean_drops += 1
        else:
            self._write_raw(pte, pte.content.materialize())
        self._release_resident_frame(pte, PageState.BACKING_STORE)
