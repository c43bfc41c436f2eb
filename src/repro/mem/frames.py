"""Physical page frames and the kernel frame pool.

Sprite trades physical memory dynamically between the VM system and the
file system's buffer cache; the compression cache becomes a third consumer
(Section 4.2).  :class:`FramePool` models the machine's physical frames and
tracks which consumer owns each one, so the allocator can both enforce the
machine's memory limit and report the split over time.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Set


class FrameOwner(enum.Enum):
    """The three memory consumers the allocator arbitrates between."""

    # Identity hash (see TimeCategory): members are singletons, and the
    # frame pool keys per-owner counts on them in the allocation path.
    __hash__ = object.__hash__

    VM = "vm"              # uncompressed application pages
    COMPRESSION = "cc"     # the compression cache's circular buffer
    FILE_CACHE = "fs"      # file-system buffer-cache blocks


class OutOfFramesError(Exception):
    """Raised when an allocation is requested and no frame is free.

    The VM/allocator layers are expected to reclaim before allocating, so
    reaching this exception indicates a policy bug; tests assert on it.
    """


@dataclass
class FramePool:
    """Fixed pool of physical page frames with ownership accounting.

    Args:
        total_frames: frames available to the three consumers — i.e. the
            machine's user-available memory.  (The ~6 MBytes the Sprite
            kernel itself occupies is subtracted before this pool is
            built; see :mod:`repro.sim.machine`.)
    """

    total_frames: int
    _free: List[int] = field(default_factory=list, repr=False)
    _owner: Dict[int, FrameOwner] = field(default_factory=dict, repr=False)
    _counts: Dict[FrameOwner, int] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.total_frames <= 0:
            raise ValueError(
                f"frame pool needs at least one frame, got {self.total_frames}"
            )
        self._free = list(range(self.total_frames - 1, -1, -1))
        self._counts = {owner: 0 for owner in FrameOwner}
        #: Number of unallocated frames (read on every frame request).
        self.free_frames = self.total_frames

    def allocate(self, owner: FrameOwner) -> int:
        """Take a free frame for ``owner``; raises OutOfFramesError if none."""
        if not self._free:
            raise OutOfFramesError(
                f"no free frames (total={self.total_frames}, "
                f"split={self.split()})"
            )
        frame = self._free.pop()
        self.free_frames -= 1
        self._owner[frame] = owner
        self._counts[owner] += 1
        return frame

    def release(self, frame: int) -> None:
        """Return a frame to the free pool."""
        owner = self._owner.pop(frame, None)
        if owner is None:
            raise ValueError(f"frame {frame} is not allocated")
        self._counts[owner] -= 1
        self._free.append(frame)
        self.free_frames += 1

    def owner_of(self, frame: int) -> FrameOwner:
        """Current owner of an allocated frame."""
        try:
            return self._owner[frame]
        except KeyError:
            raise ValueError(f"frame {frame} is not allocated") from None

    @property
    def allocated_frames(self) -> int:
        """Number of frames currently owned by some consumer."""
        return self.total_frames - len(self._free)

    def owned_by(self, owner: FrameOwner) -> int:
        """Number of frames currently owned by ``owner``."""
        return self._counts[owner]

    def split(self) -> Dict[str, int]:
        """Current ownership split, for metrics snapshots."""
        result = {owner.value: self._counts[owner] for owner in FrameOwner}
        result["free"] = len(self._free)
        return result

    def allocated_set(self) -> Set[int]:
        """Frames currently allocated (testing / invariant checks)."""
        return set(self._owner)
