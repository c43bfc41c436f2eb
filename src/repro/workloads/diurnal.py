"""Diurnal traffic: a working set that breathes on a day/night cycle.

The scale-out roadmap (and every serving system) sees load that swells
and shrinks on a daily rhythm.  This workload models the memory-side
effect: the active working set sweeps between a nighttime trough and a
daytime peak on a deterministic triangle wave, so the right compressed-
tier geometry at noon is wrong at midnight — the scenario where a
closed-loop controller earns its keep against any static split.

Each phase performs full passes over the first ``N_phase`` pages of one
segment; pages past the trough go cold for whole phases at a time and
become prime demotion candidates, then return in a burst as the wave
rises again.
"""

from __future__ import annotations

from typing import Iterator, List

from ..mem.content import PageContent
from ..mem.page import DEFAULT_PAGE_SIZE, PageId, pages_for_bytes
from ..mem.segment import AddressSpace
from ..sim.engine import PageRef
from .base import Workload
from .contentgen import repeating_pattern


class DiurnalWorkload(Workload):
    """Triangle-wave working set over one segment.

    Args:
        space_bytes: the daytime-peak working set.
        phases: number of phases in the run (one full day is
            ``phases`` steps trough → peak → trough).
        passes_per_phase: full passes over the phase's active set.
        trough_fraction: nighttime share of the peak working set.
        write: dirty one word per page per pass.
        unique_bytes: content compressibility knob.
        seed: content seed.
    """

    def __init__(
        self,
        space_bytes: int,
        phases: int = 8,
        passes_per_phase: int = 2,
        trough_fraction: float = 0.25,
        write: bool = True,
        unique_bytes: int = 640,
        seed: int = 0,
        page_size: int = DEFAULT_PAGE_SIZE,
    ):
        super().__init__(page_size=page_size)
        if space_bytes <= 0:
            raise ValueError("space_bytes must be positive")
        if phases < 2:
            raise ValueError("phases must be >= 2")
        if passes_per_phase < 1:
            raise ValueError("passes_per_phase must be >= 1")
        if not 0.0 < trough_fraction <= 1.0:
            raise ValueError("trough_fraction must be in (0, 1]")
        self.space_bytes = space_bytes
        self.phases = phases
        self.passes_per_phase = passes_per_phase
        self.trough_fraction = trough_fraction
        self.write = write
        self.unique_bytes = unique_bytes
        self.seed = seed
        self.npages = pages_for_bytes(space_bytes, page_size)
        self.name = "diurnal"
        self._segment_id: int = -1

    def phase_pages(self) -> List[int]:
        """Active pages per phase: a trough → peak → trough triangle."""
        trough = max(1, int(self.npages * self.trough_fraction))
        half = self.phases // 2
        sizes = []
        for phase in range(self.phases):
            # Distance from the nearest trough, normalized to [0, 1].
            position = (phase % self.phases)
            rise = (position / half if position <= half
                    else (self.phases - position) / (self.phases - half))
            sizes.append(trough + int((self.npages - trough) * rise))
        return sizes

    def _build(self, space: AddressSpace) -> None:
        # Values, not ``self``: see Thrasher._build.
        seed, unique_bytes = self.seed, self.unique_bytes
        page_size = self.page_size
        segment = space.add_segment(
            "diurnal",
            self.npages,
            content_factory=lambda n: repeating_pattern(
                n,
                seed=seed,
                unique_bytes=unique_bytes,
                page_size=page_size,
            ),
        )
        self._segment_id = segment.segment_id
        for number in range(self.npages):
            segment.entry(number).content.stable_key = (
                f"{self.name}:{self.seed}:{number}"
            )

    def _references(self) -> Iterator[PageRef]:
        for phase, active in enumerate(self.phase_pages()):
            for cycle in range(self.passes_per_phase):
                for number in range(active):
                    page_id = PageId(self._segment_id, number)
                    if self.write:
                        yield PageRef(
                            page_id=page_id,
                            write=True,
                            mutate=_store_phase_word(phase, cycle),
                        )
                    else:
                        yield PageRef(page_id=page_id)

    def total_references(self) -> int:
        """Events the run will emit."""
        return sum(self.phase_pages()) * self.passes_per_phase


def _store_phase_word(phase: int, cycle: int):
    """Mutation storing a phase/cycle tag into the page's first word."""

    def mutate(content: PageContent) -> None:
        content.store_word(0, (phase << 8 | cycle) + 1)

    return mutate
