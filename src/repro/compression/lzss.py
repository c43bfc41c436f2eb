"""LZSS with chained-hash search and lazy matching.

Section 5.2 of the paper observes that with "other compression algorithms"
(slower than LZRW1) the pages of the ``compare`` workload "should compress
even better".  This module provides such an algorithm: the stored format is
byte-compatible with a copy/literal scheme like LZRW1's, but the encoder
spends far more effort finding matches — it walks a chain of previous
positions per hash bucket and defers a match by one byte when the next
position offers a longer one (lazy matching, as in gzip).

Relative to :class:`repro.compression.lzrw1.Lzrw1` it produces strictly
smaller-or-equal output on virtually all inputs at several times the CPU
cost, which is exactly the trade-off the paper's asymmetric/off-line
discussion (Taunton, Atkinson et al.) is about.

The output is **bit-identical** to the seed implementation (frozen in
:mod:`repro.compression._seed_reference`), enforced by
``tests/compression/test_golden_kernels.py`` and
``tests/compression/test_lzss.py``, but there is no hash table.  The
seed inserts every position that has a trigram into its bucket's chain
exactly once, in increasing order, before any later position is searched
(its literal, match-interior and lazy paths all insert).  So the chain
seen from ``p`` is ``prev[p], prev[prev[p]], ...`` with ``prev[p]`` the
previous position with the same 12-bit hash: a function of the bytes
alone, whatever the parse did.  :func:`_chain_tables` builds ``prev`` for
the whole page up front, and with it the positions at which a match can
exist at all; every other position is a literal whenever the parse
reaches it, so :meth:`Lzss.compress` emits those runs as slices and runs
the seed's candidate loop (:func:`_search`: same chain order, depth
budget, strict-improvement updates, early break on a full-length match)
only where it can succeed.  The per-candidate first-byte guard only skips
extensions that provably cannot beat the current best, so the chosen
(length, offset) never changes.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple, Union

from .base import Compressor, register
from .lzrw1 import (    # the item stream and its limits are shared
    _GROUP,
    _MAX_MATCH,
    _MAX_OFFSET,
    _MIN_MATCH,
    _VECTOR_THRESHOLD,
    _np,
    decode_items,
    numpy_size_floor,
)

#: Williams's LZRW1 hash constant, which the seed kept for its buckets.
_HASH_MULTIPLIER = 40543


def _hash_array(data: bytes):
    """The bucket of every 3-byte window of ``data``, a uint32 array."""
    d = _np.frombuffer(data, _np.uint8).astype(_np.uint32)
    k = ((d[:-2] << 8) ^ (d[1:-1] << 4) ^ d[2:]) & 0xFFFF
    return ((k * _HASH_MULTIPLIER) >> 4) & 0xFFF


def _chain_tables(
    data: bytes, n: int, chain_depth: int, use_numpy: bool
) -> Tuple[List[int], Union[bytes, bytearray]]:
    """The two parse-independent tables :meth:`Lzss.compress` walks.

    ``prev[p]`` is the previous position whose trigram has ``p``'s hash
    (-1 for none); ``can_match[p]`` is 1 where a search may find a match
    and 0 where it cannot (``n`` entries).  The numpy pass marks exactly
    the positions the search succeeds at — one of the first
    ``chain_depth`` chain entries lies within ``_MAX_OFFSET`` and starts
    with the same three bytes; the scalar pass marks every position that
    has a predecessor, a superset the search then narrows.  Either way
    the encoder emits the same bytes.
    """
    if use_numpy and _np is not None and n >= _VECTOR_THRESHOLD:
        hashes = _hash_array(data).astype(_np.uint16)
        order = hashes.argsort(kind="stable")   # by (hash, position)
        d = _np.frombuffer(data, _np.uint8)
        trigram = d[:-2].astype(_np.uint32)
        trigram <<= 8
        trigram |= d[1:-1]
        trigram <<= 8
        trigram |= d[2:]
        trigram = trigram[order]
        hashes = hashes[order]
        prev = _np.empty(n - 2, _np.intp)
        prev[order[0]] = -1
        prev[order[1:]] = _np.where(hashes[1:] == hashes[:-1],
                                    order[:-1], -1)
        # In sorted order the k-th chain entry of a position sits k rows
        # up (equal trigrams imply equal hashes, hence the same bucket).
        hit = _np.zeros(n - 2, _np.bool_)
        capped = n - _MIN_MATCH > _MAX_OFFSET
        for k in range(1, min(chain_depth, n - 3) + 1):
            same = trigram[k:] == trigram[:-k]
            if capped:
                same &= order[k:] - order[:-k] <= _MAX_OFFSET
            hit[k:] |= same
        can_match = _np.zeros(n, _np.bool_)
        can_match[order] = hit
        return prev.tolist(), can_match.tobytes()
    heads = [-1] * 4096
    prev = []
    can_match = bytearray(n)
    mult = _HASH_MULTIPLIER
    for p in range(n - 2):
        h = ((mult * (((data[p] << 8) ^ (data[p + 1] << 4) ^ data[p + 2])
                      & 0xFFFF)) >> 4) & 0xFFF
        cand = heads[h]
        if cand >= 0:
            can_match[p] = 1
        prev.append(cand)
        heads[h] = p
    return prev, can_match


def _search(
    data: bytes, n: int, prev: List[int], i: int, depth: int
) -> Tuple[int, int]:
    """Best ``(length, offset)`` among the first ``depth`` chain entries
    of ``i`` within ``_MAX_OFFSET``; ``(0, 0)`` when none reaches
    ``_MIN_MATCH`` bytes."""
    max_len = _MAX_MATCH if n - i > _MAX_MATCH else n - i
    b = data[i:i + max_len]
    length = 0
    offset = 0
    nearest = i - _MAX_OFFSET if i > _MAX_OFFSET else 0
    cand = prev[i]
    while cand >= nearest:
        if data[cand + length] == b[length]:
            a = data[cand:cand + max_len]
            if a == b:
                return max_len, i - cand
            x = int.from_bytes(a, "little") ^ int.from_bytes(b, "little")
            cl = ((x & -x).bit_length() - 1) >> 3
            if cl > length:
                length = cl
                offset = i - cand
        depth -= 1
        if not depth:
            break
        cand = prev[cand]
    if length < _MIN_MATCH:
        return 0, 0
    return length, offset


@register("lzss")
class Lzss(Compressor):
    """Greedy-with-lazy-evaluation LZSS encoder.

    Args:
        chain_depth: maximum number of candidate positions examined per
            hash bucket.  Higher values improve the ratio and slow the
            encoder; 16 is a good balance for 4-KByte pages.
        lazy: enable one-byte lazy match deferral.
        fast: as for every :class:`Compressor`; here it selects the
            numpy table pass.
    """

    def __init__(
        self,
        chain_depth: int = 16,
        lazy: bool = True,
        fast: Optional[bool] = None,
    ):
        if chain_depth < 1:
            raise ValueError("chain_depth must be >= 1")
        super().__init__(fast)
        self.chain_depth = chain_depth
        self.lazy = lazy

    def result_cache_key(self):
        # Both knobs steer the match search and change the emitted stream.
        return ("lzss", self.chain_depth, self.lazy)

    @property
    def size_floor(self) -> Optional[Callable[[bytes], int]]:
        return numpy_size_floor if self._use_fast else None

    def _encode(self, data: bytes, n: int) -> Optional[bytes]:
        if n < _MIN_MATCH + 1:
            return None

        depth = self.chain_depth
        lazy = self.lazy
        prev, can_match = _chain_tables(data, n, depth, self._use_fast)
        next_match = can_match.find

        out = bytearray()
        items = bytearray()
        items_append = items.append
        out_append = out.append
        control = 0
        nitems = 0      # _GROUP once a match fills a group: flushed below
        i = 0

        while i < n:
            # data[i:j] are literals whatever the parse; then the item at j.
            j = next_match(1, i)
            length = 0
            if j < 0:
                j = n
            else:
                length, offset = _search(data, n, prev, j, depth)
                if lazy:
                    # One-byte deferral: while the next position matches
                    # longer, this one becomes a literal.  The chains do not
                    # depend on the parse, so the probe's result is the
                    # search the next round would repeat.
                    while (_MIN_MATCH <= length < _MAX_MATCH
                           and can_match[j + 1]):
                        probe = _search(data, n, prev, j + 1, depth)
                        if probe[0] <= length:
                            break
                        j += 1
                        length, offset = probe
                if not length:
                    j += 1

            take = _GROUP - nitems
            while j - i >= take:        # the run fills the open group
                items += data[i:i + take]
                i += take
                out_append(control & 0xFF)
                out_append(control >> 8)
                out += items
                del items[:]
                control = 0
                take = _GROUP
            items += data[i:j]
            nitems = _GROUP - take + j - i
            i = j

            if length:
                items_append(((length - _MIN_MATCH) << 4) | (offset >> 8))
                items_append(offset & 0xFF)
                control |= 1 << nitems
                nitems += 1
                i += length

        if nitems:
            out_append(control & 0xFF)
            out_append(control >> 8)
            out += items
        return bytes(out)

    def _decode(self, payload: bytes, n: int) -> bytes:
        return decode_items(payload, n, "lzss")
