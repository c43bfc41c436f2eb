"""A compression cache configured as one tier of the chain.

:class:`CompressedTier` bundles what the machine used to wire ad hoc for
its single cache — the circular buffer, a per-tier (per-kernel) sampler,
the adaptive gate, and the cleaner policy — as one level for
:class:`~repro.tiers.chain.TierChain` to drive.

:class:`DemotionSink` is the piece that chains tiers together.  A
:class:`~repro.ccache.circular.CompressionCache` "writes out" dirty
pages through a fragment-store-shaped object (``put``/``contains``/
``flush``); the terminal tier points at the real
:class:`~repro.storage.fragstore.FragmentStore`, while every warmer tier
points at a sink that *recompresses the page into the next-colder tier*
instead: decompress with the source kernel, compress with the target
kernel, insert dirty.  The recompression CPU time is charged to the
``DEMOTE`` ledger category on every demotion, and the host does both:
the source kernel's decoder runs on every page moved, and the
recompression goes through the target tier's sampler like any other
compression.  No I/O happens until the terminal tier's write-outs reach
the store, which is the only point where the VM's ``written_callback``
may fire.

Demotion reliability: compressor fault injection applies at the VM/pager
eviction boundary, not inside the sink — a demotion that loses data has
no recovery path short of the backstop, so the sink models the kernel's
in-memory recompression as reliable (the substrate faults the paper's
resilience layer models are I/O faults, which demotion does not perform).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from ..ccache.circular import CompressionCache
from ..ccache.cleaner import CleanerPolicy
from ..ccache.threshold import AdaptiveCompressionGate
from ..compression.base import CompressionResult
from ..compression.sampler import CompressionSampler
from ..mem.frames import OutOfFramesError
from ..mem.page import PageId
from ..sim.costs import CostModel
from ..sim.ledger import Ledger, TimeCategory
from .spec import TierSpec


class DemotionSink:
    """Write-out target that recompresses pages into the next tier.

    Wired between two :class:`CompressedTier` levels after both exist
    (``sink.source`` / ``sink.target``); quacks like the fragment store
    for exactly the calls :class:`CompressionCache` makes on its backing
    object.
    """

    def __init__(self, ledger: Ledger, costs: CostModel, page_size: int):
        self.ledger = ledger
        self.costs = costs
        self.page_size = page_size
        self.source: Optional["CompressedTier"] = None
        self.target: Optional["CompressedTier"] = None
        self.demoted_pages = 0
        #: Demotions that could not get a target frame and went straight
        #: to the terminal store instead (see :meth:`_spill_to_store`).
        self.spilled_pages = 0
        # Pages whose demotion is currently on the stack.  Growing the
        # target tier can re-enter the allocator, shrink the source, and
        # ask to demote the same page again before the first insert
        # lands; the nested call must be a no-op.
        self._in_flight: set = set()

    def put_many(
        self, items: Sequence[Tuple[PageId, bytes]]
    ) -> float:
        """Demote a group of pages a level colder: N :meth:`put` calls."""
        return sum(
            (self.put(page_id, payload) for page_id, payload in items), 0.0
        )

    def put(self, page_id: PageId, payload: bytes) -> float:
        """Move one page a level colder; returns 0.0 (no I/O seconds).

        The CPU cost — decompress with the source kernel, recompress
        with the target kernel, each scaled by its tier's
        ``compress_scale`` — is charged to ``DEMOTE`` here, so the
        caller's CLEANER/IO_WRITE charge of the return value adds
        nothing.
        """
        if page_id in self._in_flight:
            return 0.0  # nested request for a demotion already in progress
        source, target = self.source, self.target
        # The source entry is still registered while its cache writes it
        # out, so the content version rides along to the colder copy.
        version = source.cache.entries[page_id].content_version
        # Recover the bytes the source payload encodes.  (Not
        # ``pte.content``: under a workload ``stable_key`` the payload is
        # the page's first-measured bytes.)  A demotion is admitted
        # whatever its size, so the source may hold a page its kernel
        # stored raw.
        data = source.sampler.compressor.decompress(
            CompressionResult.from_payload(payload, self.page_size))
        self.ledger.charge(
            TimeCategory.DEMOTE,
            self.costs.decompress_seconds(self.page_size)
            * source.spec.compress_scale
            + self.costs.compress_seconds(self.page_size)
            * target.spec.compress_scale,
        )
        result = target.sampler.compress(data)
        cache = target.cache
        self._in_flight.add(page_id)
        try:
            if page_id in cache:
                cache.drop(page_id)  # superseded colder copy
            try:
                cache.insert(
                    page_id,
                    result.payload,
                    dirty=True,
                    now=self.ledger.now,
                    content_version=version,
                )
            except OutOfFramesError:
                # The target tier cannot get a frame right now (every
                # pool is pinned mid-shrink).  The shrink path owes the
                # allocator a frame, so the page spills straight to the
                # terminal store instead of staying a level colder.
                return self._spill_to_store(page_id, data, result, version)
        finally:
            self._in_flight.discard(page_id)
        self.demoted_pages += 1
        return 0.0

    def _spill_to_store(
        self,
        page_id: PageId,
        data: bytes,
        target_result: CompressionResult,
        version: int,
    ) -> float:
        """Write a demoted page through to the real fragment store.

        Store payloads must carry the *terminal* tier's encoding (faults
        readmit them into the coldest tier and decompress with its
        kernel), so recompress when the immediate target is not terminal.
        Returns the store-write seconds for the caller to charge.
        """
        terminal = self.target
        while terminal.sink is not None:
            terminal = terminal.sink.target
        if terminal is self.target:
            result = target_result
        else:
            self.ledger.charge(
                TimeCategory.DEMOTE,
                self.costs.compress_seconds(self.page_size)
                * terminal.spec.compress_scale,
            )
            result = terminal.sampler.compress(data)
        seconds = terminal.cache.fragstore.put(page_id, result.payload)
        self.spilled_pages += 1
        if terminal.cache.written_callback is not None:
            terminal.cache.written_callback(page_id, version)
        return seconds

    def contains(self, page_id: PageId) -> bool:
        """Whether the demoted copy is still reachable below the source
        (recursing down a chain of sinks to the real store)."""
        cache = self.target.cache
        return page_id in cache or cache.fragstore.contains(page_id)

    def flush(self) -> float:
        """Nothing staged here; demotions land in memory immediately."""
        return 0.0


@dataclass
class CompressedTier:
    """One compressed level: cache + kernel sampler + gate + cleaner.

    ``sink`` is ``None`` on the terminal tier (whose cache writes to the
    real fragment store) and the tier's :class:`DemotionSink` otherwise.
    Only the warmest tier's ``gate`` is ever enabled — the gate models
    disabling *eviction-path* compression, and evictions enter the chain
    at the top.
    """

    spec: TierSpec
    cache: CompressionCache
    sampler: CompressionSampler
    gate: AdaptiveCompressionGate
    cleaner: CleanerPolicy
    sink: Optional[DemotionSink] = field(default=None)

    @property
    def name(self) -> str:
        return self.spec.name

    def stats(self) -> dict:
        """JSON-native snapshot, one row of :meth:`TierChain.snapshot`."""
        sink = self.sink
        return {
            "name": self.spec.name,
            "kind": "compressed",
            "frames": self.cache.nframes,
            "pages": self.cache.compressed_pages,
            "compressor": self.spec.compressor,
            "compressed_pages": self.cache.compressed_pages,
            "live_bytes": self.cache.live_bytes,
            "dirty_pages": self.cache.dirty_pages(),
            "cache": self.cache.counters.snapshot(),
            "sampler": {
                "hits": self.sampler.hits,
                "misses": self.sampler.misses,
            },
            "demoted_out": sink.demoted_pages if sink is not None else 0,
            "spilled_out": sink.spilled_pages if sink is not None else 0,
        }
