"""Locality analysis: LRU stack distances and working-set curves.

Section 3's verdict is that everything depends on "page access
patterns"; Section 5.2 explains every Table 1 outcome in terms of
locality.  This module provides the standard analytical tools:

* :func:`stack_distances` — Mattson's LRU stack algorithm.  Because LRU
  has the inclusion property, one pass yields the exact fault count for
  *every* memory size simultaneously: a reference with stack distance d
  misses in any memory smaller than d pages.
* :class:`MissRatioCurve` — faults as a function of memory size, built
  from the distance histogram.  ``faults_at(frames)`` exactly predicts
  what the simulator's true-LRU StandardVM will do, which the test suite
  cross-validates.
* :func:`store_distances` — the same for a key-value store's reads,
  where a missed read stores nothing and a delete frees its slot; one
  raw tier of the cache service is such an LRU, and ``serve-bench``
  reports its hit-rate curve beside the measured rate.
* :func:`working_set_sizes` — Denning's working set W(t, tau).

These let users reason about where a workload sits on Figure 3's curve
(or whether a compression cache can help at all) without running the
full simulator.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

INFINITE = -1  # distance marker for first touches


def stack_distances(references: Iterable[Hashable]) -> List[int]:
    """LRU stack distance of each reference (1-based; INFINITE = first touch).

    A reference's distance is the number of distinct items touched since
    its previous reference, inclusive — equivalently its depth in the LRU
    stack.  O(n log n) overall via a simple list (move-to-front on a
    Python list is O(depth), acceptable at page-trace sizes).
    """
    stack: List[Hashable] = []
    position: Dict[Hashable, int] = {}
    distances: List[int] = []
    for item in references:
        index = position.get(item)
        if index is None:
            distances.append(INFINITE)
        else:
            distances.append(len(stack) - index)
            del stack[index]
            for shifted in range(index, len(stack)):
                position[stack[shifted]] = shifted
        stack.append(item)
        position[item] = len(stack) - 1
    return distances


def store_distances(ops: Iterable[Tuple[str, Hashable]]) -> List[int]:
    """LRU stack distance of each read in a key-value store's stream.

    ``ops`` are ``(op, item)`` pairs, ``op`` one of ``"get"``, ``"put"``
    and ``"delete"``, under a store's rules rather than demand paging: a
    put makes its item the most recent, a get that hits does too but one
    that misses stores nothing, and a delete frees the item's slot
    without bringing anything back.  Returns one distance per get: it
    hits in an LRU store of ``c`` items exactly when its distance is at
    most ``c`` (INFINITE: deleted or never put, a miss at every size).

    Such a store keeps LRU's inclusion property, so one pass still
    serves every size, but the stack is not move-to-front.  A get leaves
    its item where it is and only renews its age (the sizes it missed in
    do not hold it), a delete leaves a hole, and a put walks down from
    the top to the first hole (its item's old slot at the latest),
    keeping at each depth the younger of what it carries and what sits
    there — Mattson's general stack update with age as the priority and
    a hole older than anything.
    """
    stack: List[Optional[Hashable]] = []     # None: a hole
    age: Dict[Hashable, int] = {}            # item -> last put or hit
    distances: List[int] = []
    for now, (op, item) in enumerate(ops):
        if op == "get":
            if item in age:
                distances.append(stack.index(item) + 1)
                age[item] = now
            else:
                distances.append(INFINITE)
            continue
        if op == "delete":
            if item in age:
                del age[item]
                stack[stack.index(item)] = None
        elif op == "put":
            # The item's old slot (or a new one at the bottom) is a hole
            # now, so the walk below always ends at one.
            if item in age:
                stack[stack.index(item)] = None
            else:
                stack.append(None)
            age[item] = now
            carried: Hashable = item
            for depth, here in enumerate(stack):
                if here is None:
                    stack[depth] = carried
                    break
                if age[here] < age[carried]:
                    stack[depth] = carried
                    carried = here
        else:
            raise ValueError(f"unknown store op {op!r}")
        while stack and stack[-1] is None:
            stack.pop()
    return distances


@dataclass(frozen=True)
class MissRatioCurve:
    """Fault counts as a function of LRU memory size."""

    #: histogram[d] = number of references at stack distance d.
    histogram: Dict[int, int]
    #: First touches (compulsory faults at every size).
    compulsory: int
    #: Total references analyzed.
    references: int

    @classmethod
    def from_references(cls, references: Iterable[Hashable]) -> "MissRatioCurve":
        return cls.from_distances(stack_distances(references))

    @classmethod
    def from_distances(cls, distances: Sequence[int]) -> "MissRatioCurve":
        """The curve of one distance per reference (INFINITE: a miss at
        every size), from :func:`stack_distances` or
        :func:`store_distances`."""
        histogram = Counter(d for d in distances if d != INFINITE)
        compulsory = sum(1 for d in distances if d == INFINITE)
        return cls(dict(histogram), compulsory, len(distances))

    def faults_at(self, frames: int) -> int:
        """Exact LRU fault count with ``frames`` page frames."""
        if frames < 0:
            raise ValueError(f"negative memory size: {frames}")
        capacity_misses = sum(
            count for distance, count in self.histogram.items()
            if distance > frames
        )
        return self.compulsory + capacity_misses

    def miss_ratio_at(self, frames: int) -> float:
        """Fault rate with ``frames`` page frames."""
        if self.references == 0:
            return 0.0
        return self.faults_at(frames) / self.references

    def curve(self, sizes: Sequence[int]) -> List[Tuple[int, int]]:
        """(size, faults) samples for plotting."""
        return [(size, self.faults_at(size)) for size in sizes]

    def knee(self, tolerance: float = 0.02) -> int:
        """Smallest memory size whose miss ratio is within ``tolerance``
        of the compulsory floor — where Figure 3's std curve flattens."""
        floor = self.compulsory / self.references if self.references else 0.0
        size = 0
        max_distance = max(self.histogram, default=0)
        for size in range(0, max_distance + 1):
            if self.miss_ratio_at(size) <= floor + tolerance:
                return size
        return max_distance


def working_set_sizes(
    references: Sequence[Hashable], tau: int
) -> List[int]:
    """Denning working-set sizes: |W(t, tau)| for each t.

    W(t, tau) is the set of distinct pages referenced in the window
    ``(t - tau, t]``.  Computed incrementally in O(n).
    """
    if tau <= 0:
        raise ValueError(f"window must be positive: {tau}")
    last_seen: Dict[Hashable, int] = {}
    sizes: List[int] = []
    window: Counter = Counter()
    for t, item in enumerate(references):
        window[item] += 1
        if t >= tau:
            old = references[t - tau]
            window[old] -= 1
            if window[old] == 0:
                del window[old]
        sizes.append(len(window))
    return sizes


def predicted_compression_benefit(
    curve: MissRatioCurve,
    frames: int,
    compression_ratio: float,
    metadata_fraction: float = 0.03,
) -> Tuple[int, int]:
    """A back-of-envelope Figure 1(b) for a real trace.

    Returns (std_faults, cc_disk_faults): the unmodified system faults
    ``faults_at(frames)`` to disk; the compression cache turns memory
    into a two-level hierarchy whose effective capacity is roughly
    ``frames / ratio`` (minus metadata), so only faults deeper than that
    still hit the disk.  Every number is exact LRU mathematics on the
    trace; only the capacity model is approximate.
    """
    if not 0.0 < compression_ratio <= 1.0:
        raise ValueError(f"ratio out of range: {compression_ratio}")
    std_faults = curve.faults_at(frames)
    effective = int(frames * (1.0 - metadata_fraction) / compression_ratio)
    cc_disk_faults = curve.faults_at(effective)
    return std_faults, cc_disk_faults
