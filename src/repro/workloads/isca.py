"""The ``isca`` workload: a multiprocessor cache-coherence simulator.

Table 1's second-best application is "Dubnicki's cache simulator, which
is both CPU-intensive and memory-intensive" (simulating adjustable block
size coherent caches).  We implement the essential structure of such a
simulator for real:

* its dominant data structure is a large table of per-set cache state —
  tags, MESI-style states, and reference counters — for every simulated
  processor, far larger than physical memory at full scale;
* it consumes a synthetic shared-memory trace: each event maps an
  address to a set, probes the owning processor's table page (read),
  and on misses or invalidations updates state in that page and possibly
  a peer processor's page (writes);
* every event also costs simulator CPU time (tag comparison, state
  machine) — the "CPU-intensive" half.

Set indices are drawn with temporal locality (a hot working set plus a
uniform tail), so the fault pattern mixes reuse with sweep — giving the
moderate 1.6x speedup shape rather than thrasher's extreme.
"""

from __future__ import annotations

import random
from typing import Iterator

from ..mem.page import DEFAULT_PAGE_SIZE, PageId, pages_for_bytes
from ..mem.segment import AddressSpace
from ..sim.engine import PageRef
from .base import Workload
from .contentgen import cache_table_page, incompressible


class CacheSimWorkload(Workload):
    """Trace-driven coherence-simulator memory behaviour.

    Args:
        table_bytes: total size of the simulated-cache state tables.
        events: number of trace events processed.
        processors: simulated processors (each owns a slice of the table).
        hot_fraction: fraction of the table forming the hot set.
        hot_probability: probability an event hits the hot set.
        miss_rate: fraction of events that update state (writes).
        remote_rate: fraction of misses that also touch a peer's table.
        incompressible_fraction: fraction of table pages holding packed
            trace buffers that do not compress (Table 1: 1.7%).
        event_seconds: simulator CPU time per event.
    """

    name = "isca"

    def __init__(
        self,
        table_bytes: int,
        events: int,
        processors: int = 8,
        hot_fraction: float = 0.25,
        hot_probability: float = 0.7,
        miss_rate: float = 0.35,
        remote_rate: float = 0.2,
        incompressible_fraction: float = 0.017,
        event_seconds: float = 0.0,
        seed: int = 0,
        page_size: int = DEFAULT_PAGE_SIZE,
    ):
        super().__init__(page_size=page_size)
        if table_bytes <= 0 or events <= 0 or processors <= 0:
            raise ValueError("table size, events, processors must be positive")
        if not 0.0 < hot_fraction <= 1.0:
            raise ValueError(f"hot_fraction out of range: {hot_fraction}")
        self.table_bytes = table_bytes
        self.events = events
        self.processors = processors
        self.hot_fraction = hot_fraction
        self.hot_probability = hot_probability
        self.miss_rate = miss_rate
        self.remote_rate = remote_rate
        self.incompressible_fraction = incompressible_fraction
        self.event_seconds = event_seconds
        self.seed = seed
        self.npages = pages_for_bytes(table_bytes, page_size)
        self._segment_id = -1

    def _build(self, space: AddressSpace) -> None:
        # Values, not ``self``: see Thrasher._build.
        seed, page_size = self.seed, self.page_size
        incompressible_fraction = self.incompressible_fraction

        def content(number: int) -> bytes:
            # A deterministic sprinkling of packed (incompressible) pages.
            rng = random.Random((seed << 20) ^ number ^ 0x15CA0)
            if rng.random() < incompressible_fraction:
                return incompressible(number, seed=seed, page_size=page_size)
            return cache_table_page(number, seed=seed, page_size=page_size)

        segment = space.add_segment(
            "cache-tables", self.npages, content_factory=content
        )
        self._segment_id = segment.segment_id
        for number in range(self.npages):
            segment.entry(number).content.stable_key = (
                f"isca:{self.seed}:{number}"
            )

    def _pick_page(self, rng: random.Random) -> int:
        hot_pages = max(1, int(self.npages * self.hot_fraction))
        if rng.random() < self.hot_probability:
            return rng.randrange(hot_pages)
        return rng.randrange(self.npages)

    def _references(self) -> Iterator[PageRef]:
        rng = random.Random(self.seed ^ 0x15CA5EED)
        pages_per_cpu = max(1, self.npages // self.processors)
        for _ in range(self.events):
            page = self._pick_page(rng)
            page_id = PageId(self._segment_id, page)
            miss = rng.random() < self.miss_rate
            yield PageRef(
                page_id,
                write=miss,
                compute_seconds=self.event_seconds,
            )
            if miss and rng.random() < self.remote_rate:
                # Invalidation at a peer: same set offset, another CPU.
                peer = rng.randrange(self.processors)
                remote = (page + peer * pages_per_cpu) % self.npages
                yield PageRef(PageId(self._segment_id, remote), write=True)

    def total_references(self) -> int:
        """Approximate event count (remote touches add a stochastic ~7%)."""
        return self.events
