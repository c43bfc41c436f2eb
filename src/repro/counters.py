"""What a block of counters serialises to, said once.

Every counter dataclass in the package derives from :class:`Counters`,
so a counter added to one is reported — and digested — without its name
being repeated in a hand-written ``snapshot()``.  The kernel's memory
counters for this process are read in one place too
(:func:`proc_status_kb`).
"""

from __future__ import annotations

from dataclasses import fields
from typing import ClassVar, Optional, Tuple


def proc_status_kb(field: str) -> Optional[int]:
    """``field`` of ``/proc/self/status`` in KB (``"VmRSS"``, the resident
    set now; ``"VmHWM"``, its peak since exec, or since fork for a forked
    child); ``None`` where there is no ``/proc``."""
    prefix = field + ":"
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith(prefix):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


class Counters:
    """Base of the counter dataclasses."""

    #: Properties reported after the fields, in this order.
    DERIVED: ClassVar[Tuple[str, ...]] = ()

    def snapshot(self) -> dict:
        """Plain-dict copy for reports and digests: every dataclass
        field in declaration order (a subclass's after its base's), then
        :attr:`DERIVED`."""
        out = {}
        for name in [f.name for f in fields(self)] + list(self.DERIVED):
            value = getattr(self, name)
            # A list of records (the controller's action log) is copied,
            # so a snapshot never changes under its holder.
            out[name] = ([dict(entry) for entry in value]
                         if isinstance(value, list) else value)
        return out
