"""The MemoryTier protocol: what every level of the hierarchy can do.

Five verbs cover the life of a page in any tier:

* ``admit`` — a warmer level pushes a page in (eviction or demotion);
* ``fault`` — the page is needed warmer; hand its bytes back;
* ``demote`` — push the tier's coldest dirty data one level colder
  (cleaner-paced background work);
* ``shrink`` — give one physical frame back to the global allocator;
* ``stats`` — a JSON-native snapshot for reports.

:class:`~repro.tiers.compressed.CompressedTier` implements all five;
:class:`~repro.tiers.store.StoreTier` sits at the cold end of the chain
and implements the subset that makes sense for it (the store never
shrinks).  The warm end is the VM itself, which admits and faults its
resident pages directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Protocol, Tuple, runtime_checkable

from ..mem.page import PageId


@dataclass(frozen=True)
class TierStats:
    """Uniform per-tier accounting, serialized into run results."""

    name: str
    kind: str                      # "compressed" | "store"
    frames: int                    # physical frames currently held
    pages: int                     # pages (or fragments' pages) held
    counters: Dict[str, object]    # tier-kind-specific counters

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "kind": self.kind,
            "frames": self.frames,
            "pages": self.pages,
            **self.counters,
        }


@runtime_checkable
class MemoryTier(Protocol):
    """One level of the compressed-memory hierarchy."""

    name: str

    def admit(
        self,
        page_id: PageId,
        payload: bytes,
        dirty: bool,
        now: float,
        content_version: int = -1,
        on_backing_store: bool = False,
    ) -> None:
        """Accept a page pushed down from a warmer level."""

    def fault(
        self, page_id: PageId, now: float, remove: bool = True
    ) -> Tuple[bytes, bool]:
        """Hand back ``(payload, was_dirty)`` for a page moving warmer."""

    def demote(self, max_pages: int) -> int:
        """Push up to ``max_pages`` of the coldest dirty data one level
        colder; returns pages moved."""

    def shrink(self) -> Optional[float]:
        """Release one physical frame to the allocator (None = refused)."""

    def stats(self) -> TierStats:
        """Snapshot for metrics and reports."""

    def contains(self, page_id: PageId) -> bool:
        """Whether this tier currently holds the page."""

    def coldest_age(self, now: float) -> Optional[float]:
        """Age of the tier's LRU entry (the trading policy's input)."""
