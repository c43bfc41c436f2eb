"""The compression cache as a user-level external pager.

Everything Section 4 builds inside the Sprite kernel — the circular
buffer, the 4:3 threshold, the cleaner, compressed write-out — lives here
behind the :class:`MemoryObjectPager` interface instead.  The kernel
(:class:`repro.vm.external.ExternalPagerVM`) only sees pageout/pagein
messages, exactly the restructuring the paper suggests for Mach.

The trade this architecture makes is measurable with the benchmarks: the
pager pays an IPC round trip per crossing (and an extra page copy across
the protection boundary), but the cache policy becomes a replaceable
user-level component.

Like the in-kernel VM, the pager drives a
:class:`~repro.tiers.chain.TierChain` through its verbs — the admission
decision, the fault lookup, cleaner pacing and the drain are the chain's,
shared with :class:`repro.vm.compressed.CompressedVM`.  What is the
pager's own: it holds the only copy of its pages, so it numbers their
versions itself, really decodes what it hands back, and reports an
unrecoverable read or write as a :class:`PagerError` where the kernel VM
would fall back to the backstop.
"""

from __future__ import annotations

from ..compression.base import CompressionResult
from ..compression.stats import CompressionStats
from ..faults.errors import IORetriesExhausted, MissingFragmentError
from ..mem.page import PageId
from ..sim.ledger import Ledger, TimeCategory
from ..tiers.chain import Rejected, TierChain
from ..tiers.compressed import CompressedTier
from .interface import MemoryObjectPager, PagerError


class CompressionPager(MemoryObjectPager):
    """A compressed tier chain living entirely behind the pager interface."""

    def __init__(
        self,
        chain: TierChain,
        ledger: Ledger,
        page_size: int,
    ):
        self.chain = chain
        self.fragstore = chain.fragstore
        self.raw = chain.raw
        self.ledger = ledger
        self.page_size = page_size
        self.stats = CompressionStats()
        # Version counter per page: a new pageout supersedes store copies.
        self._versions: dict = {}
        self._raw_on_swap: set = set()

    # ------------------------------------------------------------------
    # MemoryObjectPager
    # ------------------------------------------------------------------

    def pageout(self, page_id: PageId, data: bytes, dirty: bool) -> None:
        if len(data) != self.page_size:
            raise PagerError(
                f"pageout of {len(data)} bytes; expected {self.page_size}"
            )
        if not dirty and self.holds(page_id):
            # The kernel's copy matched what we already hold: if it is
            # still compressed in memory or on a store, nothing to do.
            return
        for tier in self.chain.tiers:
            if page_id in tier.cache:
                tier.cache.drop(page_id)  # superseded contents
        version = self._versions.get(page_id, 0) + 1
        self._versions[page_id] = version
        self._raw_on_swap.discard(page_id)

        outcome = self.chain.compress_evicted(data, self.stats)
        if not isinstance(outcome, Rejected):
            self.chain.admit(page_id, outcome, version)
            return
        self.raw.pageout(page_id, data, dirty=True)
        self.fragstore.free(page_id)  # any compressed store copy is stale
        self._raw_on_swap.add(page_id)

    def pagein(self, page_id: PageId) -> bytes:
        hit = self.chain.fetch(page_id)
        if hit is not None:
            tier, payload = hit
            return self._decompress(payload, tier)
        if self.fragstore.contains(page_id):
            payload, seconds, _ = self._get_fragment(page_id)
            self.ledger.charge(TimeCategory.IO_READ, seconds)
            # Store payloads carry the coldest tier's encoding.
            return self._decompress(payload, self.chain.coldest)
        if page_id in self._raw_on_swap:
            return self.raw.pagein(page_id)
        raise PagerError(f"pagein for unknown page {page_id}")

    def _decompress(self, payload: bytes, tier: CompressedTier) -> bytes:
        """Charge and perform decompression with the tier's kernel."""
        self.chain.charge_decompress(tier)
        return tier.sampler.compressor.decompress(
            CompressionResult.from_payload(payload, self.page_size)
        )

    def _get_fragment(self, page_id: PageId):
        """Fetch a fragment, surfacing resilient failures as PagerErrors.

        The pager holds the only copy of its pages, so there is no
        backstop here: an unrecoverable fragment is a hard pager fault,
        reported with the page id and the store's GC generation.
        """
        try:
            return self.chain.read_fragment(page_id)
        except MissingFragmentError as exc:
            raise PagerError(
                f"pagein for {page_id}: fragment missing "
                f"(GC generation {exc.gc_generation})"
            ) from exc
        except IORetriesExhausted as exc:
            raise PagerError(
                f"pagein for {page_id} failed after retries: "
                f"{exc.last_error}"
            ) from exc

    def holds(self, page_id: PageId) -> bool:
        return (
            self.chain.holds(page_id)
            or self.fragstore.contains(page_id)
            or page_id in self._raw_on_swap
        )

    def tick(self) -> None:
        """Run the cleaners, as the in-kernel version does after faults."""
        self.chain.run_cleaners()

    def flush(self) -> None:
        self.chain.drain()
