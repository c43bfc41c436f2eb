"""Background cleaner policy.

"A kernel thread writes out the oldest dirty data in the compression
cache in an attempt to keep a pool of physical pages clean and ready for
reclamation.  The rate at which pages are cleaned is a function of the
number of completely free pages in the system, the number of clean pages
that are already reclaimable, and the size of the compression cache."
(Section 4.2)

The simulator has no real threads; the engine invokes the policy at page
boundaries (every fault is a natural scheduling point) and the cache
performs the write-out, charging time to the CLEANER category.  Because
the cleaner's fragment-store writes are batched 32 KBytes at a time, its
cost per cleaned page is far below a synchronous page-out — which is the
entire point of cleaning ahead of demand.
"""

from __future__ import annotations

from dataclasses import dataclass

#: How many compressed pages typically fit in one frame (≈ compression
#: factor for 4-KByte pages); converts a frame deficit into a page count.
PAGES_PER_FRAME_ESTIMATE = 3.0


@dataclass(frozen=True)
class CleanerPolicy:
    """Decides how many dirty compressed pages to write out right now.

    Args:
        target_clean_fraction: the cleaner tries to keep this fraction of
            the cache's frames reclaimable (clean or free).
        free_goal_frames: completely free frames count toward the goal;
            with this many free frames the cleaner stays idle regardless.
        max_batch_pages: upper bound on pages cleaned per invocation, so
            cleaning interleaves with foreground progress.
    """

    target_clean_fraction: float = 0.25
    free_goal_frames: int = 8
    max_batch_pages: int = 16

    def __post_init__(self) -> None:
        if not 0.0 <= self.target_clean_fraction <= 1.0:
            raise ValueError(
                f"target_clean_fraction out of range: {self.target_clean_fraction}"
            )
        if self.free_goal_frames < 0 or self.max_batch_pages < 0:
            raise ValueError("cleaner frame/page goals must be non-negative")

    def idle(self, free_frames: int, reclaimable_frames: int,
             cache_frames: int) -> bool:
        """Whether :meth:`pages_to_clean` would return 0: its three exits
        alone, asked after every fault before the policy itself."""
        return (cache_frames == 0 or free_frames >= self.free_goal_frames
                or int(self.target_clean_fraction * cache_frames + 0.5)
                <= reclaimable_frames + free_frames)

    def pages_to_clean(
        self,
        free_frames: int,
        reclaimable_frames: int,
        cache_frames: int,
    ) -> int:
        """Number of dirty pages the cleaner should write out now.

        Monotone in cache size, anti-monotone in free and reclaimable
        frames — exactly the dependence the paper describes.
        """
        if min(free_frames, reclaimable_frames, cache_frames) < 0:
            raise ValueError("frame counts must be non-negative")
        if self.idle(free_frames, reclaimable_frames, cache_frames):
            return 0
        goal_frames = int(self.target_clean_fraction * cache_frames + 0.5)
        deficit = goal_frames - reclaimable_frames - free_frames
        pages = int(deficit * PAGES_PER_FRAME_ESTIMATE + 0.5)
        return max(1, min(self.max_batch_pages, pages))
