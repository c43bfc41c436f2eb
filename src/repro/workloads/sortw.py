"""The ``sort`` workload: quicksort over ~12 MBytes of text.

Section 5.2 runs quicksort on a large text file in two variants:

* ``sort random`` — fully shuffled input, "so there was minimal
  repetition of strings within an individual 4-Kbyte page"; about 98% of
  pages miss the 4:3 threshold and the compression cache only slows the
  program down (0.91x);
* ``sort partial`` — a minor permutation of the sorted file "with
  substrings (or complete words) often repeated within a page", giving
  ~3:1 on about half the pages and a 1.30x speedup.

This module emits quicksort's *page-level* access pattern for real: a
recursive partition over the heap, where each partition makes a
two-pointer sweep (reads and writes from both ends moving inward), then
recurses on the halves until ranges fit in one page.  The input file is
also read through the file-system buffer cache at start-up, exercising
the three-way memory trade.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Tuple

from ..mem.page import DEFAULT_PAGE_SIZE, PageId, pages_for_bytes
from ..mem.segment import AddressSpace
from ..sim.engine import PageRef
from .base import Workload
from .contentgen import dictionary_words, text_page_clustered, text_page_random


class SortWorkload(Workload):
    """Quicksort page-access trace over a word-filled heap.

    Args:
        data_bytes: text being sorted (the paper's is ~12 MBytes); the
            heap also holds a pointer array of ``pointer_overhead`` times
            the data size.
        partial: True for the ``sort partial`` input (word-clustered
            pages), False for ``sort random``.
        compressible_fraction: fraction of heap pages with within-page
            repetition.  Defaults follow Table 1: 51% for partial
            (49% uncompressible), 2% for random (98% uncompressible).
        compare_seconds: CPU time per page-granularity partition step.
    """

    def __init__(
        self,
        data_bytes: int,
        partial: bool,
        compressible_fraction: float = -1.0,
        pointer_overhead: float = 0.5,
        compare_seconds: float = 0.0,
        seed: int = 0,
        page_size: int = DEFAULT_PAGE_SIZE,
    ):
        super().__init__(page_size=page_size)
        if data_bytes <= 0:
            raise ValueError(f"data_bytes must be positive: {data_bytes}")
        self.data_bytes = data_bytes
        self.partial = partial
        if compressible_fraction < 0.0:
            compressible_fraction = 0.51 if partial else 0.02
        if not 0.0 <= compressible_fraction <= 1.0:
            raise ValueError(
                f"compressible_fraction out of range: {compressible_fraction}"
            )
        self.compressible_fraction = compressible_fraction
        self.pointer_overhead = pointer_overhead
        self.compare_seconds = compare_seconds
        self.seed = seed
        self.name = "sort_partial" if partial else "sort_random"
        heap_bytes = int(data_bytes * (1.0 + pointer_overhead))
        self.npages = pages_for_bytes(heap_bytes, page_size)
        self._segment_id = -1
        # The memoized tuple, not a list: the text memos resolve it by
        # identity instead of hashing its 4,096 words on every page.
        self._dictionary = dictionary_words(seed=seed ^ 0x50F7)

    def _build(self, space: AddressSpace) -> None:
        # Values, not ``self``: see Thrasher._build.
        seed, page_size = self.seed, self.page_size
        compressible_fraction = self.compressible_fraction
        dictionary = self._dictionary

        def content(number: int) -> bytes:
            rng = random.Random((seed << 20) ^ number ^ 0x50F75EED)
            if rng.random() < compressible_fraction:
                # cluster_words=30 lands the kept-page ratio near the
                # paper's ~30% for both sort variants.
                return text_page_clustered(
                    number, dictionary, seed=seed,
                    cluster_words=30, page_size=page_size,
                )
            return text_page_random(
                number, dictionary, seed=seed, page_size=page_size
            )

        segment = space.add_segment(
            "sort-heap", self.npages, content_factory=content
        )
        self._segment_id = segment.segment_id
        # Swapping words within a page preserves its compressibility
        # class (repetition is a property of the word population).
        for number in range(self.npages):
            segment.entry(number).content.stable_key = (
                f"{self.name}:{self.seed}:{number}"
            )

    def _partition_refs(self, lo: int, hi: int) -> Iterator[PageRef]:
        """Two-pointer partition sweep over pages [lo, hi]."""
        left, right = lo, hi
        while left <= right:
            yield PageRef(
                PageId(self._segment_id, left),
                write=True,
                compute_seconds=self.compare_seconds,
            )
            if right != left:
                yield PageRef(
                    PageId(self._segment_id, right),
                    write=True,
                    compute_seconds=self.compare_seconds,
                )
            left += 1
            right -= 1

    def _references(self) -> Iterator[PageRef]:
        rng = random.Random(self.seed ^ 0x9507)
        # Initial load: sequential read of the whole heap (building it
        # from the input file).
        for number in range(self.npages):
            yield PageRef(
                PageId(self._segment_id, number),
                write=True,
                compute_seconds=self.compare_seconds,
            )
        # Quicksort over page ranges, explicit stack.  Median-of-three
        # pivoting keeps splits near the middle with mild data-dependent
        # jitter, as in production quicksorts.
        stack: List[Tuple[int, int]] = [(0, self.npages - 1)]
        while stack:
            lo, hi = stack.pop()
            if hi <= lo:
                continue
            yield from self._partition_refs(lo, hi)
            middle = (lo + hi) // 2
            jitter = rng.randint(-(hi - lo) // 8, (hi - lo) // 8) if hi - lo >= 8 else 0
            mid = min(hi, max(lo, middle + jitter))
            # Smaller half handled next (classic stack-depth bound; also
            # matches real locality).
            if mid - lo > hi - mid:
                stack.append((lo, max(lo, mid - 1)))
                stack.append((min(hi, mid + 1), hi))
            else:
                stack.append((min(hi, mid + 1), hi))
                stack.append((lo, max(lo, mid - 1)))

    def total_references(self) -> int:
        """Roughly npages * (log2(npages) + 2) events."""
        import math

        return int(self.npages * (math.log2(max(2, self.npages)) + 2))
