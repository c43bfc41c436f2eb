"""The thrasher micro-benchmark (Section 5.1, Figure 3).

"Thrasher cycles linearly through a working set, reading (and optionally
writing) one word of memory on each page each time through the working
set.  The system uses an LRU algorithm for page replacement, so if
thrasher's working set does not fit in memory, then it takes a page fault
on each page access."

Page contents are tuned so LZRW1 achieves the "roughly 4:1" compression
the Figure 3 caption reports.  The write variant stores one word per page
per cycle (the cycle number), exactly as described.
"""

from __future__ import annotations

from typing import Iterator

from ..mem.content import PageContent
from ..mem.page import DEFAULT_PAGE_SIZE, PageId, pages_for_bytes
from ..mem.segment import AddressSpace
from ..sim.engine import PageRef
from .base import Workload
from .contentgen import repeating_pattern


class Thrasher(Workload):
    """Linear cyclic sweep over a working set.

    Args:
        working_set_bytes: total address space touched.
        cycles: full passes over the working set.
        write: modify one word per page per pass (the ``rw`` variant).
        unique_bytes: compressibility knob of the page contents; 640
            yields the paper's ~4:1.
        seed: content randomization seed.
    """

    def __init__(
        self,
        working_set_bytes: int,
        cycles: int = 4,
        write: bool = True,
        unique_bytes: int = 640,
        seed: int = 0,
        page_size: int = DEFAULT_PAGE_SIZE,
    ):
        super().__init__(page_size=page_size)
        if working_set_bytes <= 0 or cycles <= 0:
            raise ValueError("working set and cycles must be positive")
        self.working_set_bytes = working_set_bytes
        self.cycles = cycles
        self.write = write
        self.unique_bytes = unique_bytes
        self.seed = seed
        self.npages = pages_for_bytes(working_set_bytes, page_size)
        self.name = f"thrasher_{'rw' if write else 'ro'}"
        self._segment_id: int = -1

    def _build(self, space: AddressSpace) -> None:
        # The factory closes over values, never ``self``: the space a
        # workload holds must not hold the workload back (see "Ownership
        # and lifetime" in docs/internals.md).
        seed, unique_bytes = self.seed, self.unique_bytes
        page_size = self.page_size
        segment = space.add_segment(
            "thrasher",
            self.npages,
            content_factory=lambda n: repeating_pattern(
                n,
                seed=seed,
                unique_bytes=unique_bytes,
                page_size=page_size,
            ),
        )
        self._segment_id = segment.segment_id
        # One-word writes per cycle don't change the compressibility
        # class, so a single measurement per page stands for all versions.
        for number in range(self.npages):
            segment.entry(number).content.stable_key = (
                f"{self.name}:{self.seed}:{number}"
            )

    def _references(self) -> Iterator[PageRef]:
        for cycle in range(self.cycles):
            for number in range(self.npages):
                page_id = PageId(self._segment_id, number)
                if self.write:
                    yield PageRef(
                        page_id=page_id,
                        write=True,
                        mutate=_store_cycle_word(cycle),
                    )
                else:
                    yield PageRef(page_id=page_id)

    def total_references(self) -> int:
        """Accesses the run will perform (pages x cycles)."""
        return self.npages * self.cycles


def _store_cycle_word(cycle: int):
    """Mutation storing the cycle number into the page's first word."""

    def mutate(content: PageContent) -> None:
        content.store_word(0, cycle + 1)

    return mutate
