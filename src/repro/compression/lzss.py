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

Two encoders emit these bytes, held **bit-identical** by
``tests/compression/test_golden_kernels.py``,
``tests/compression/test_lzss.py`` and
``tests/compression/test_lz_compiled.py``: the compiled one
(``lzss_encode`` in the package's LZ library, ``_lz.c``, loaded by
:func:`~repro.compression.lzrw1.compiled_library`) and the seed's
(:class:`~repro.compression._seed_reference.SeedLzss`): the oracle,
what ``fast=False`` runs, and the silent fallback wherever the library
cannot be built or loaded.  The compiled encoder does not keep the
seed's hash table.  The seed inserts every position that has a trigram
into its bucket's chain exactly once, in increasing order, before any
later position is searched, so the chain seen from ``p`` is ``prev[p],
prev[prev[p]], ...`` with ``prev[p]`` the previous position with the
same 12-bit hash: a function of the bytes alone, whatever the parse did.
``lzss_encode`` builds ``prev`` for the whole page with a 4,096-entry
head table and then parses position by position as the seed does.
"""

from __future__ import annotations

from typing import Optional

from .base import register
from .lzrw1 import LzKernel


@register("lzss")
class Lzss(LzKernel):
    """Greedy-with-lazy-evaluation LZSS encoder.

    Args:
        chain_depth: maximum number of candidate positions examined per
            hash bucket.  Higher values improve the ratio and slow the
            encoder; 16 is a good balance for 4-KByte pages.
        lazy: enable one-byte lazy match deferral.
        fast: as for every :class:`Compressor`.  ``False`` runs the
            seed's encoder; otherwise the compiled encoder runs if it
            loads, else the seed's.
    """

    def __init__(
        self,
        chain_depth: int = 16,
        lazy: bool = True,
        fast: Optional[bool] = None,
    ):
        if chain_depth < 1:
            raise ValueError("chain_depth must be >= 1")
        self.chain_depth = chain_depth
        self.lazy = lazy
        super().__init__(fast)

    def result_cache_key(self):
        # Both knobs steer the match search and change the emitted stream.
        return ("lzss", self.chain_depth, self.lazy)

    def _encode(self, data: bytes, n: int) -> Optional[bytes]:
        library = self._compiled()
        if library is not None:
            return library.lzss_encode(data, n, self.chain_depth, self.lazy)
        from ._seed_reference import SeedLzss

        result = SeedLzss(self.chain_depth, self.lazy).compress(data)
        return None if result.stored_raw else result.payload
