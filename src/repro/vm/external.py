"""The kernel half of the external-pager architecture.

A minimal VM that knows nothing about compression: evictions are handed
to a :class:`MemoryObjectPager`, faults ask the pager for the page, and
every kernel<->pager crossing pays one IPC round trip plus a page copy
across the protection boundary — the overhead Mach's out-of-kernel
default memory manager measured in practice (Golub & Draves 1991).

Comparing :class:`ExternalPagerVM` + :class:`CompressionPager` against
the in-kernel :class:`repro.vm.compressed.CompressedVM` quantifies what
the paper's suggested Mach port would cost.
"""

from __future__ import annotations

from ..ccache.allocator import ThreeWayAllocator
from ..mem.frames import FramePool
from ..mem.page import PageState
from ..mem.pagetable import PageTableEntry
from ..mem.segment import AddressSpace
from ..pager.interface import MemoryObjectPager
from ..sim.costs import CostModel
from ..sim.ledger import Ledger, TimeCategory
from .faults import FaultSource
from .system import BaseVM


class ExternalPagerVM(BaseVM):
    """Demand paging that delegates all backing storage to a pager."""

    def __init__(
        self,
        address_space: AddressSpace,
        frames: FramePool,
        allocator: ThreeWayAllocator,
        ledger: Ledger,
        costs: CostModel,
        pager: MemoryObjectPager,
        min_resident_frames: int = 2,
        paranoid: bool = False,
    ):
        super().__init__(
            address_space, frames, allocator, ledger, costs,
            min_resident_frames, paranoid,
        )
        self.pager = pager
        self.pager_crossings = 0
        self._fault_pending_tick = False

    def _crossing(self) -> None:
        """One kernel<->pager IPC round trip plus a page copy."""
        self.pager_crossings += 1
        self.ledger.charge(TimeCategory.FAULT_TRAP, self.costs.ipc_roundtrip_s)
        self.ledger.charge(
            TimeCategory.COPY,
            self.costs.copy_seconds(self.address_space.page_size),
        )

    def _fill(self, pte: PageTableEntry) -> FaultSource:
        page_id = pte.page_id
        self._fault_pending_tick = True
        if self.pager.holds(page_id):
            self._crossing()
            data = self.pager.pagein(page_id)
            frame = self._obtain_frame()
            if self.paranoid and data != pte.content.materialize():
                raise AssertionError(
                    f"pager returned wrong data for {page_id}"
                )
            source = FaultSource.SWAP  # from the kernel's view: external
        else:
            frame = self._obtain_frame()
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
        page_id = pte.page_id
        dirty = (
            pte.saved_version != pte.content.version
            or not self.pager.holds(page_id)
        )
        if dirty:
            data = pte.content.materialize()
            self._crossing()
            # Hand the frame back before the pageout message so the
            # pager (which may grow a compression cache) can use it —
            # the same ordering the in-kernel path uses.
            self._release_resident_frame(pte, PageState.BACKING_STORE)
            self.pager.pageout(page_id, data, dirty=True)
            pte.note_saved()
            self.metrics.evictions.raw_writes += 1
        else:
            # Clean: the pager already holds these contents; no message
            # is needed at all (the kernel just unmaps).
            self.metrics.evictions.clean_drops += 1
            self._release_resident_frame(pte, PageState.BACKING_STORE)

    def _after_access(self) -> None:
        if self._fault_pending_tick:
            self._fault_pending_tick = False
            self.pager.tick()

    def drain(self) -> None:
        super().drain()
        self.pager.flush()
