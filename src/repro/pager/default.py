"""The default memory manager: plain swap behind the pager interface.

This is also the one place a full page reaches the paging device: the
kernel that pages to swap itself (:class:`repro.vm.standard.StandardVM`),
the two that send there what the 4:3 rule rejected
(:class:`repro.vm.compressed.CompressedVM`,
:class:`repro.pager.compression.CompressionPager`) and the external-pager
baseline all hold a :class:`DefaultPager` and move raw pages through
:meth:`~DefaultPager.write` and :meth:`~DefaultPager.read`.  What a
transfer that failed for good *means* stays with the holder: the kernel
VMs defer the write-back or re-fetch from the backstop, a pager holds
the only copy and raises :class:`PagerError`.
"""

from __future__ import annotations

from typing import Optional

from ..faults.retry import ResilientIO
from ..mem.page import PageId
from ..sim.ledger import TimeCategory
from ..storage.swap import StandardSwap
from .interface import MemoryObjectPager, PagerError


class DefaultPager(MemoryObjectPager):
    """Mach's default memory manager, modeled: raw pages to a swap file.

    Clean pageouts (contents unchanged since the previous pageout) cost
    nothing — the backing copy is still valid.  Every transfer runs
    under ``retry`` and is charged to its ledger.
    """

    def __init__(self, swap: StandardSwap, retry: ResilientIO):
        self.swap = swap
        self.retry = retry
        self.ledger = retry.ledger

    # ------------------------------------------------------------------
    # The raw page path
    # ------------------------------------------------------------------

    def write(self, page_id: PageId, data: bytes) -> bool:
        """Write a full page to its swap offset and charge it; ``False``
        when the transfer failed for good (nothing was saved)."""
        seconds = self.retry.try_call(
            self.swap.write_page, TimeCategory.IO_WRITE, page_id, data
        )
        if seconds is None:
            return False
        self.ledger.charge(TimeCategory.IO_WRITE, seconds)
        return True

    def read(self, page_id: PageId) -> Optional[bytes]:
        """Read a page's swap copy and charge it; ``None`` when the
        transfer failed for good."""
        fetched = self.retry.try_call(
            self.swap.read_page, TimeCategory.IO_READ, page_id
        )
        if fetched is None:
            return None
        data, seconds = fetched
        self.ledger.charge(TimeCategory.IO_READ, seconds)
        return data

    def backstop_read(self) -> None:
        """Last-resort re-fetch from the paging server's authoritative copy.

        Charged as a reliable full-page read on the unwrapped device
        (faults are not injected into the backstop: the authoritative
        copy is assumed intact, matching the paper's remote-memory
        server holding the ground truth).
        """
        device = self.swap.fs.device
        device = getattr(device, "inner", device)
        self.ledger.charge(
            TimeCategory.IO_READ, device.read(self.swap.page_size)
        )
        self.retry.resilience.backstop_refetches += 1

    # ------------------------------------------------------------------
    # MemoryObjectPager
    # ------------------------------------------------------------------

    def pageout(self, page_id: PageId, data: bytes, dirty: bool) -> None:
        if not dirty and self.swap.contains(page_id):
            return
        if not self.write(page_id, data):
            # The pager holds the only copy of the page: losing the
            # write would lose data, so the failure surfaces to the
            # kernel with context.
            raise PagerError(
                f"pageout write for {page_id} failed after retries"
            )

    def pagein(self, page_id: PageId) -> bytes:
        if not self.swap.contains(page_id):
            raise PagerError(f"pagein for unknown page {page_id}")
        data = self.read(page_id)
        if data is None:
            raise PagerError(
                f"pagein read for {page_id} failed after retries"
            )
        return data

    def holds(self, page_id: PageId) -> bool:
        return self.swap.contains(page_id)
