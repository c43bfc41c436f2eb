"""Ariadne-style app-relaunch traffic (PAPERS.md).

A small set of "apps" timeshare the machine in foreground sessions.
Each session *relaunches* the next app — its whole working set faults
back in a burst — and then works in the foreground, looping with writes
over the hot half of its pages while every other app sits cold.  On a
phone this is the app-switch storm Ariadne compresses around: the
background app's pages are the coldest data in the system right up
until the moment they are all demanded at once.

What makes the scenario interesting for the tier controller: the best
static compressed-tier geometry depends on which app is foreground
(they have different footprints and different compressibility), so a
fixed cap is always wrong for part of the run — while relaunch bursts
reward keeping cold-but-compressible pages in memory rather than
letting them drain to the backing store.

The session schedule is seeded and deterministic: same parameters, same
reference stream, bit for bit.
"""

from __future__ import annotations

import random
from typing import Iterator, List

from ..mem.content import PageContent
from ..mem.page import DEFAULT_PAGE_SIZE, PageId, pages_for_bytes
from ..mem.segment import AddressSpace
from ..sim.engine import PageRef
from .base import Workload
from .contentgen import repeating_pattern

#: Per-app variation: footprint scale and content compressibility
#: (``unique_bytes`` — larger compresses worse).  Cycled for > 3 apps.
_APP_SHAPES = ((1.0, 384), (1.5, 640), (0.75, 1536))


class AppRelaunchWorkload(Workload):
    """Foreground sessions with full-working-set relaunch bursts.

    Args:
        app_bytes: baseline per-app working set (scaled per app by the
            built-in shape table, so apps differ in footprint).
        apps: number of timesharing apps.
        sessions: foreground sessions (the first launches app 0; each
            later one switches to a different, seeded-randomly chosen
            app and relaunches it).
        hot_fraction: share of the foreground app's pages in active use.
        hot_passes: write passes over the hot set per session.
        write: whether foreground use dirties pages.
        seed: schedule and content seed.
    """

    def __init__(
        self,
        app_bytes: int,
        apps: int = 3,
        sessions: int = 8,
        hot_fraction: float = 0.5,
        hot_passes: int = 4,
        write: bool = True,
        seed: int = 0,
        page_size: int = DEFAULT_PAGE_SIZE,
    ):
        super().__init__(page_size=page_size)
        if app_bytes <= 0:
            raise ValueError("app_bytes must be positive")
        if apps < 2:
            raise ValueError("relaunch needs at least 2 apps")
        if sessions < 1:
            raise ValueError("sessions must be >= 1")
        if not 0.0 < hot_fraction <= 1.0:
            raise ValueError("hot_fraction must be in (0, 1]")
        if hot_passes < 0:
            raise ValueError("hot_passes must be >= 0")
        self.app_bytes = app_bytes
        self.apps = apps
        self.sessions = sessions
        self.hot_fraction = hot_fraction
        self.hot_passes = hot_passes
        self.write = write
        self.seed = seed
        self.name = "relaunch"
        self._segment_ids: List[int] = []
        self._npages: List[int] = []
        for i in range(apps):
            scale, _ = _APP_SHAPES[i % len(_APP_SHAPES)]
            self._npages.append(
                max(1, pages_for_bytes(int(app_bytes * scale), page_size))
            )
        # Seeded schedule: app 0 launches first, then every session
        # switches to a different app (a relaunch, never a no-op).
        rng = random.Random(seed)
        self._schedule: List[int] = [0]
        for _ in range(sessions - 1):
            current = self._schedule[-1]
            choices = [i for i in range(apps) if i != current]
            self._schedule.append(rng.choice(choices))

    def _build(self, space: AddressSpace) -> None:
        page_size = self.page_size
        for i in range(self.apps):
            _, unique_bytes = _APP_SHAPES[i % len(_APP_SHAPES)]
            npages = self._npages[i]
            seed = self.seed * 1031 + i
            segment = space.add_segment(
                f"app{i}",
                npages,
                # Values, not ``self``: see Thrasher._build.
                content_factory=lambda n, s=seed, u=unique_bytes: (
                    repeating_pattern(
                        n, seed=s, unique_bytes=u, page_size=page_size
                    )
                ),
            )
            self._segment_ids.append(segment.segment_id)
            # Foreground writes store one word per pass — the page's
            # compressibility class never changes, so one measurement
            # per page stands for every version.
            for number in range(npages):
                segment.entry(number).content.stable_key = (
                    f"{self.name}:{self.seed}:{i}:{number}"
                )

    def _references(self) -> Iterator[PageRef]:
        for session, app in enumerate(self._schedule):
            segment_id = self._segment_ids[app]
            npages = self._npages[app]
            # Relaunch burst: the whole working set faults back in.
            for number in range(npages):
                yield PageRef(page_id=PageId(segment_id, number))
            # Foreground use: hot subset, with writes.
            hot = max(1, int(npages * self.hot_fraction))
            for cycle in range(self.hot_passes):
                for number in range(hot):
                    page_id = PageId(segment_id, number)
                    if self.write:
                        yield PageRef(
                            page_id=page_id,
                            write=True,
                            mutate=_store_session_word(session, cycle),
                        )
                    else:
                        yield PageRef(page_id=page_id)

    def total_references(self) -> int:
        """Events the run will emit (launch bursts + foreground passes)."""
        total = 0
        for app in self._schedule:
            npages = self._npages[app]
            hot = max(1, int(npages * self.hot_fraction))
            total += npages + hot * self.hot_passes
        return total


def _store_session_word(session: int, cycle: int):
    """Mutation storing a session/cycle tag into the page's first word."""

    def mutate(content: PageContent) -> None:
        content.store_word(0, (session << 8 | cycle) + 1)

    return mutate
