"""What a block of counters serialises to, said once.

Every counter dataclass in the package derives from :class:`Counters`,
so a counter added to one is reported — and digested — without its name
being repeated in a hand-written ``snapshot()``.
"""

from __future__ import annotations

from dataclasses import fields
from typing import ClassVar, Tuple


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
