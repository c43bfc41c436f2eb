"""The compressed-page backing-store surface, written down.

:class:`~repro.storage.fragstore.FragmentStore` and (``store="lfs"``)
:class:`~repro.storage.logstore.LogStructuredStore` are interchangeable
under the tier chain; these protocols are exactly the calls made on
them (declarations only — nothing dispatches on them), and
:func:`verify_payload` is the read check both stores bind as
``_verify``.
"""

from __future__ import annotations

import zlib
from typing import List, Protocol, Tuple

from ..faults.errors import FragmentChecksumError
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

    def collect_due(self) -> bool:
        """O(1): whether an unforced :meth:`maybe_collect` would collect."""

    def maybe_collect(self, force: bool = False) -> float:
        """Run the garbage collector if due; returns seconds to charge."""


def verify_payload(store, page_id: PageId, location, payload: bytes,
                   seconds: float) -> bytes:
    """Apply any injected corruption, then check the payload CRC.

    ``store`` is a store carrying ``injector``, ``resilience`` and
    ``_sticky_corrupt``; ``location`` carries the recorded ``crc32``.
    ``seconds`` is the I/O time the read already consumed; a raised
    :class:`FragmentChecksumError` carries it so the retry layer can
    charge the failed attempt to virtual time.
    """
    injector = store.injector
    if injector is not None:
        sticky_prior = store._sticky_corrupt.get(page_id)
        if sticky_prior is not None:
            payload = sticky_prior
        else:
            hit = injector.corrupt_fragment(payload)
            if hit is not None:
                payload, sticky = hit
                if sticky:
                    store._sticky_corrupt[page_id] = payload
    resilience = store.resilience
    if resilience is not None:
        resilience.crc_checks += 1
    actual = zlib.crc32(payload)
    if actual != location.crc32:
        if resilience is not None:
            resilience.crc_failures += 1
        raise FragmentChecksumError(
            page_id, location.crc32, actual, seconds=seconds
        )
    return payload
