"""Parameterized synthetic workload for tests, ablations, and examples.

Knobs cover the three factors Section 3 says drive the compression
cache's effectiveness: compressibility of pages, locality of references,
and the read/write mix.
"""

from __future__ import annotations

import random
from typing import Iterator

from ..mem.page import DEFAULT_PAGE_SIZE, PageId, pages_for_bytes
from ..mem.segment import AddressSpace
from ..sim.engine import PageRef
from .base import Workload
from .contentgen import incompressible, repeating_pattern


class SyntheticWorkload(Workload):
    """Zipf-ish reference stream over a configurable address space.

    Args:
        address_space_bytes: total pages touched.
        references: stream length.
        write_fraction: probability a touch writes.
        hot_fraction: fraction of pages forming the hot set.
        hot_probability: probability a reference lands in the hot set.
        compressible_fraction: fraction of pages with compressible
            contents (the rest are random bytes).
        unique_bytes: compressibility knob of compressible pages.
        sequential: emit a linear sweep instead of random draws.
    """

    name = "synthetic"

    def __init__(
        self,
        address_space_bytes: int,
        references: int,
        write_fraction: float = 0.3,
        hot_fraction: float = 0.2,
        hot_probability: float = 0.8,
        compressible_fraction: float = 1.0,
        unique_bytes: int = 640,
        sequential: bool = False,
        seed: int = 0,
        page_size: int = DEFAULT_PAGE_SIZE,
    ):
        super().__init__(page_size=page_size)
        if address_space_bytes <= 0 or references <= 0:
            raise ValueError("space and reference count must be positive")
        for label, value in (
            ("write_fraction", write_fraction),
            ("hot_fraction", hot_fraction),
            ("hot_probability", hot_probability),
            ("compressible_fraction", compressible_fraction),
        ):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{label} out of range: {value}")
        self.address_space_bytes = address_space_bytes
        self.references_count = references
        self.write_fraction = write_fraction
        self.hot_fraction = hot_fraction
        self.hot_probability = hot_probability
        self.compressible_fraction = compressible_fraction
        self.unique_bytes = unique_bytes
        self.sequential = sequential
        self.seed = seed
        self.npages = pages_for_bytes(address_space_bytes, page_size)
        self._segment_id = -1

    def _build(self, space: AddressSpace) -> None:
        # Values, not ``self``: see Thrasher._build.
        seed, page_size = self.seed, self.page_size
        compressible_fraction = self.compressible_fraction
        unique_bytes = self.unique_bytes

        def content(number: int) -> bytes:
            rng = random.Random((seed << 20) ^ number ^ 0x57E7)
            if rng.random() < compressible_fraction:
                return repeating_pattern(
                    number, seed=seed, unique_bytes=unique_bytes,
                    page_size=page_size,
                )
            return incompressible(number, seed=seed, page_size=page_size)

        segment = space.add_segment(
            "synthetic", self.npages, content_factory=content
        )
        self._segment_id = segment.segment_id
        for number in range(self.npages):
            segment.entry(number).content.stable_key = (
                f"synthetic:{self.seed}:{number}"
            )

    def _references(self) -> Iterator[PageRef]:
        rng = random.Random(self.seed ^ 0x5EEDFACE)
        hot_pages = max(1, int(self.npages * self.hot_fraction))
        for i in range(self.references_count):
            if self.sequential:
                page = i % self.npages
            elif rng.random() < self.hot_probability:
                page = rng.randrange(hot_pages)
            else:
                page = rng.randrange(self.npages)
            write = rng.random() < self.write_fraction
            yield PageRef(PageId(self._segment_id, page), write=write)

    def total_references(self) -> int:
        """Exact stream length."""
        return self.references_count
