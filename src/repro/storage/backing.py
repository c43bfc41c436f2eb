"""The compressed-page backing-store surface, written down.

:class:`~repro.storage.fragstore.FragmentStore` and (``store="lfs"``)
:class:`~repro.storage.logstore.LogStructuredStore` are interchangeable
under the tier chain; these protocols are exactly the calls made on
them.  Declarations only — nothing dispatches on them.
"""

from __future__ import annotations

from typing import List, Protocol, Tuple

from ..mem.page import PageId


class WriteOutTarget(Protocol):
    """Where a compression cache writes dirty pages: a backing store,
    or a :class:`~repro.tiers.compressed.DemotionSink`."""

    def put(self, page_id: PageId, payload: bytes) -> float:
        """Take a compressed page; returns I/O seconds to charge."""

    def contains(self, page_id: PageId) -> bool:
        """Whether a copy of the page is reachable here."""

    def flush(self) -> float:
        """Write out anything staged; returns I/O seconds to charge."""


class BackingStore(WriteOutTarget, Protocol):
    """The terminal store under the tier chain (fault, prefetch, GC)."""

    #: ``snapshot()``-able device/GC counters.
    counters: object
    #: Collections run so far (context for a missing-fragment error).
    gc_generation: int

    @property
    def live_pages(self) -> int:
        """Pages currently stored."""

    def get(self, page_id: PageId) -> Tuple[bytes, float, List[PageId]]:
        """``(payload, seconds, colocated)`` for a faulted page."""

    def peek(self, page_id: PageId) -> bytes:
        """The payload without charging I/O (colocated prefetch)."""

    def free(self, page_id: PageId) -> None:
        """Forget the page's copy (superseded or unrecoverable)."""

    def maybe_collect(self, force: bool = False) -> float:
        """Run the garbage collector if due; returns seconds to charge."""
