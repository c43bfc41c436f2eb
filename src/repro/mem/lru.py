"""Intrusive LRU list with virtual-time age stamps.

Sprite's three-way memory trading compares "the age of the least-recently-
used file block to the age of the LRU VM page, and reclaims the older of
the two, modulo an adjustment" (Section 4.2).  That needs an LRU structure
that can answer *how old* its coldest entry is, not just evict it — hence
each entry carries the virtual timestamp of its last touch.

Backed by a plain insertion-ordered dict: a touch deletes and re-inserts
the key (moving it to the hot end), eviction pops the first key.  The VM
access path is the hottest loop in the simulator, so :meth:`hit` fuses the
membership probe and the re-stamp into one call.

:class:`SizedLru` is the byte-counted sibling: each value carries its own
``nbytes`` and the list keeps their sum, which is what a compressed tier
is budgeted by.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import (
    Dict, Generic, Hashable, ItemsView, Iterator, Optional, Tuple, TypeVar,
)

K = TypeVar("K", bound=Hashable)


class LruList(Generic[K]):
    """Ordered set of keys from least- to most-recently used."""

    def __init__(self) -> None:
        self._entries: Dict[K, float] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: K) -> bool:
        return key in self._entries

    def __iter__(self) -> Iterator[K]:
        """Iterate keys from coldest to hottest."""
        return iter(self._entries)

    def touch(self, key: K, now: float) -> None:
        """Insert ``key`` or move it to the hot end, stamped ``now``."""
        entries = self._entries
        if key in entries:
            del entries[key]
        entries[key] = now

    def hit(self, key: K, now: float) -> bool:
        """Re-stamp ``key`` if present; returns whether it was.

        Equivalent to ``key in lru and lru.touch(key, now)`` in one probe.
        """
        entries = self._entries
        if key in entries:
            del entries[key]
            entries[key] = now
            return True
        return False

    def remove(self, key: K) -> None:
        """Remove ``key``; raises KeyError if absent."""
        del self._entries[key]

    def discard(self, key: K) -> None:
        """Remove ``key`` if present."""
        self._entries.pop(key, None)

    def coldest(self) -> Optional[Tuple[K, float]]:
        """The least-recently-used (key, last-touch time), or None."""
        entries = self._entries
        if not entries:
            return None
        key = next(iter(entries))
        return key, entries[key]

    def coldest_age(self, now: float) -> Optional[float]:
        """Age (``now`` minus last touch) of the LRU entry, or None."""
        entries = self._entries
        if not entries:
            return None
        return now - entries[next(iter(entries))]

    def evict(self) -> K:
        """Pop and return the least-recently-used key."""
        entries = self._entries
        if not entries:
            raise KeyError("evict from empty LRU list")
        key = next(iter(entries))
        del entries[key]
        return key

    def last_touch(self, key: K) -> float:
        """Timestamp of ``key``'s last touch."""
        return self._entries[key]


V = TypeVar("V")


class SizedLru(Generic[K, V]):
    """Ordered map from least- to most-recently used key, whose values
    each carry ``nbytes``; :attr:`used_bytes` is their sum.

    A value's ``nbytes`` must not change while it is in the map.
    """

    def __init__(self) -> None:
        self._entries: "OrderedDict[K, V]" = OrderedDict()
        self.used_bytes = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: K) -> bool:
        return key in self._entries

    def get(self, key: K) -> Optional[V]:
        return self._entries.get(key)

    def items(self) -> ItemsView[K, V]:
        """(key, value) pairs from coldest to hottest."""
        return self._entries.items()

    def touch(self, key: K) -> None:
        """Move a present ``key`` to the hot end."""
        self._entries.move_to_end(key)

    def insert(self, key: K, value: V) -> None:
        """Add an absent ``key`` at the hot end."""
        self._entries[key] = value
        self.used_bytes += value.nbytes

    def pop(self, key: K) -> Optional[V]:
        """Remove ``key`` and return its value, or None if absent."""
        value = self._entries.pop(key, None)
        if value is not None:
            self.used_bytes -= value.nbytes
        return value

    def pop_lru(self) -> Tuple[K, V]:
        """Remove and return the least-recently-used (key, value)."""
        key, value = self._entries.popitem(last=False)
        self.used_bytes -= value.nbytes
        return key, value
