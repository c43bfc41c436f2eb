"""The ``compare`` workload: banded dynamic-programming file differencing.

Section 5.2: the application "computes the sequence of modifications to
change one file into another" with "a dynamic programming algorithm"
(Lipton and Lopresti's systolic string comparison).  It "uses a
two-dimensional array, of which only a wide stripe along the diagonal is
accessed.  It works its way through the array in one direction, and then
reverses direction and goes linearly back to the beginning."  The
recurrence "causes frequent repetitions in values", so the array
compresses about 3:1 with LZRW1.

The page-level access pattern this emits:

* a forward fill pass: each band row is computed from the previous one,
  touching the previous row's page (read) and the current page (write),
  with per-cell CPU work;
* a backward traceback pass: reads the stripe linearly in reverse.

Both passes are strictly sequential — the pattern the paper credits for
compare's 2.68x speedup, because sequential sweeps over a too-large array
fault on every page whether or not memory is set aside for compressed
copies.
"""

from __future__ import annotations

import random
import struct
from typing import Iterator, List, Sequence, Tuple

from ..mem.page import DEFAULT_PAGE_SIZE, PageId, pages_for_bytes
from ..mem.segment import AddressSpace
from ..sim.engine import PageRef
from .base import Workload
from .contentgen import dp_band_values


def banded_edit_distance(
    a: Sequence, b: Sequence, band: int
) -> Tuple[int, List[List[int]]]:
    """Banded Levenshtein distance (the Lipton–Lopresti computation).

    Only cells within ``band`` of the diagonal are evaluated — "a
    two-dimensional array, of which only a wide stripe along the
    diagonal is accessed".  Returns (distance, band rows), where row i
    holds the computed window of DP row i (cells j in
    ``[i - band, i + band]`` clipped to b's length).  When the true
    distance is at most ``band`` the result equals the full DP's; cells
    outside the stripe are treated as unreachable.

    Raises:
        ValueError: when the band cannot connect the two corners
            (``|len(a) - len(b)| > band``).
    """
    if band < 0:
        raise ValueError(f"negative band: {band}")
    if abs(len(a) - len(b)) > band:
        raise ValueError(
            f"band {band} cannot align lengths {len(a)} and {len(b)}"
        )
    big = len(a) + len(b) + 1  # effectively infinity
    rows: List[List[int]] = []
    previous: List[int] = []
    for i in range(len(a) + 1):
        lo = max(0, i - band)
        hi = min(len(b), i + band)
        row = []
        for j in range(lo, hi + 1):
            if i == 0:
                value = j
            elif j == 0:
                value = i
            else:
                prev_lo = max(0, i - 1 - band)
                diag = (
                    previous[j - 1 - prev_lo]
                    if j - 1 >= prev_lo and j - 1 <= min(len(b), i - 1 + band)
                    else big
                )
                up = (
                    previous[j - prev_lo]
                    if j >= prev_lo and j <= min(len(b), i - 1 + band)
                    else big
                )
                left = row[-1] if j - 1 >= lo else big
                cost = 0 if a[i - 1] == b[j - 1] else 1
                value = min(diag + cost, up + 1, left + 1)
            row.append(value)
        rows.append(row)
        previous = row
    return rows[-1][-1], rows


def _real_dp_stripe(seed: int, total_cells: int) -> bytes:
    """The stripe of a real banded DP over two ~4%-different sequences,
    as ``total_cells`` little-endian 32-bit values."""
    rng = random.Random(seed ^ 0xD1FF)
    band_cells = 128
    length = max(2, total_cells // band_cells - 1)
    a = [rng.randrange(40) for _ in range(length)]
    b = list(a)
    for _ in range(max(1, length // 25)):  # ~4% edits
        position = rng.randrange(length)
        b[position] = rng.randrange(40)
    _, rows = banded_edit_distance(a, b, band=band_cells // 2 - 1)
    words: List[int] = []
    for row in rows:
        padded = (row + [0] * band_cells)[:band_cells]
        words.extend(padded)
    words.extend([0] * (total_cells - len(words)))
    return struct.pack(
        f"<{total_cells}I", *(w & 0xFFFFFFFF for w in words)
    )


class CompareWorkload(Workload):
    """Banded edit-distance computation over a stripe too big for memory.

    Args:
        band_bytes: size of the diagonal stripe actually materialized.
        round_trips: forward+backward passes (the algorithm description
            implies at least one full round trip; divide-and-conquer
            variants make several).
        cell_seconds: CPU time per DP cell; cells per page is
            ``page_size / 4`` (32-bit values).
    """

    name = "compare"

    def __init__(
        self,
        band_bytes: int,
        round_trips: int = 2,
        cell_seconds: float = 0.0,
        real_dp: bool = False,
        seed: int = 0,
        page_size: int = DEFAULT_PAGE_SIZE,
    ):
        super().__init__(page_size=page_size)
        if band_bytes <= 0 or round_trips <= 0:
            raise ValueError("band size and round trips must be positive")
        self.band_bytes = band_bytes
        self.round_trips = round_trips
        self.cell_seconds = cell_seconds
        #: Fill pages by actually running the banded DP (quadratic-ish in
        #: band size; meant for validation at small scales).  The default
        #: synthetic generator emulates the value distribution and is
        #: tested to compress like the real thing.
        self.real_dp = real_dp
        self.seed = seed
        self.npages = pages_for_bytes(band_bytes, page_size)
        self._segment_id = -1

    def _build(self, space: AddressSpace) -> None:
        # Values, not ``self``: see Thrasher._build.
        seed, page_size = self.seed, self.page_size
        if self.real_dp:
            # Every page is instantiated below, so the stripe is computed
            # here rather than on the first call.
            stripe = _real_dp_stripe(seed, self.npages * page_size // 4)

            def factory(n: int) -> bytes:
                return stripe[n * page_size : (n + 1) * page_size]
        else:
            def factory(n: int) -> bytes:
                return dp_band_values(n, seed=seed, page_size=page_size)
        segment = space.add_segment(
            "dp-band", self.npages, content_factory=factory
        )
        self._segment_id = segment.segment_id
        for number in range(self.npages):
            segment.entry(number).content.stable_key = (
                f"compare:{int(self.real_dp)}:{self.seed}:{number}"
            )

    def _references(self) -> Iterator[PageRef]:
        cells_per_page = self.page_size // 4
        page_compute = self.cell_seconds * cells_per_page
        for _ in range(self.round_trips):
            # Forward fill: row i reads row i-1's page, writes its own.
            for number in range(self.npages):
                if number > 0:
                    yield PageRef(PageId(self._segment_id, number - 1))
                yield PageRef(
                    PageId(self._segment_id, number),
                    write=True,
                    compute_seconds=page_compute,
                )
            # Backward traceback: linear reverse read.
            for number in range(self.npages - 1, -1, -1):
                yield PageRef(PageId(self._segment_id, number))

    def total_references(self) -> int:
        """Events per run: (2 * npages - 1) fill + npages traceback, per trip."""
        return self.round_trips * (3 * self.npages - 1)
