"""C-Pack: pattern codes over a small FIFO word dictionary.

C-Pack (Chen et al., 2010) is the hardware cache-compression design the
DSCC-style simulators model: each 32-bit word is matched against a small
dictionary of recently seen words and emitted as a short code naming how
much of it matched.  Unlike WK's direct-mapped slots, the dictionary is
a FIFO that fills on every unmatched word, so repeated pointers and
structure fields converge on cheap dictionary hits after one miss.

========  =========================================  ==========
code      pattern                                    total bits
========  =========================================  ==========
``00``    zero word                                  2
``01``    miss: full 32-bit word (pushed to FIFO)    34
``10``    exact dictionary match (4-bit index)       6
``1100``  high 16 bits match (index + 2 raw bytes)   24
``1101``  zero except low byte                       12
``1110``  high 24 bits match (index + 1 raw byte)    16
========  =========================================  ==========

Codes and raw bits share one LSB-first bit stream behind a word-count
header; partial matches push the new word into the FIFO exactly as the
decoder will, keeping both sides in lockstep.  Trailing bytes that do
not fill a word are stored verbatim.
"""

from __future__ import annotations

from typing import Optional

from .base import Compressor, register


@register("cpack")
class CpackCompressor(Compressor):
    """Small-dictionary pattern matcher in the C-Pack family:
    ``cpack_encode`` and ``cpack_decode`` in the compiled library
    (:mod:`.compiled`)."""

    uses_library = True

    def result_cache_key(self):
        # No output-affecting parameters: results may be shared
        # process-wide.
        return ("cpack",)

    def _encode(self, data: bytes, n: int) -> Optional[bytes]:
        return self._library.cpack_encode(data, n)

    def _decode(self, payload: bytes, n: int) -> bytes:
        return self._library.cpack_decode(payload, n)
