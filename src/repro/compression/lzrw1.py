"""LZRW1 — Ross Williams's extremely fast Ziv-Lempel compressor (DCC 1991).

This is the algorithm the paper runs in the Sprite kernel: a single-pass
LZ77 variant that hashes three-byte sequences into a direct-mapped table of
positions and emits either literal bytes or (offset, length) copy items,
sixteen items per 16-bit control group.  Copy offsets span 1..4095 and copy
lengths 3..18, exactly as in Williams's reference implementation, so the
compression ratios this port produces on a given page are representative of
what the 1993 kernel saw.

The paper notes (Section 4.4) that the kernel sets aside a static buffer
for "the LZRW1 algorithm's hash table", 16 KBytes in the measured system —
that is 4096 four-byte entries, i.e. a 12-bit hash.  ``table_bits`` is
configurable here so the memory-versus-ratio trade-off the paper mentions
("relatively large ... improves compression at the cost of memory") can be
explored; see ``benchmarks/test_policy_ablation.py``.

Stored format produced by :meth:`Lzrw1.compress`:

* a sequence of groups, each a 16-bit little-endian control word followed
  by up to 16 items;
* control bit ``i`` (LSB first) describes item ``i``: 0 = literal (one raw
  byte), 1 = copy (two bytes: ``((len-3) << 4) | (offset >> 8)`` then
  ``offset & 0xFF``);
* when compression would expand the data the result is stored raw and
  flagged via :attr:`CompressionResult.stored_raw` (Williams's
  ``FLAG_COPY`` word serves the same purpose in the C code).

The encoder and the decoder (which also reads ``lzss``'s items) are
``lzrw1_encode`` and ``lz_decode`` in the package's one compiled
library, ``_kernels.c``, loaded by
:func:`~repro.compression.compiled.compiled_library`.  They are held
**bit-identical** to the seed's Python loop
(:class:`~repro.compression._reference.SeedLzrw1`) and its item decoder
(``_reference.decode_items``) by
``tests/compression/test_golden_kernels.py`` and
``tests/compression/test_lzrw1_compiled.py``.  :class:`LzKernel` is
what ``lzrw1`` and ``lzss`` share.
"""

from __future__ import annotations

from typing import Optional

from .base import Compressor, register


class LzKernel(Compressor):
    """What :class:`Lzrw1` and :class:`~repro.compression.lzss.Lzss`
    share: the compiled library's item decoder."""

    uses_library = True

    def _decode(self, payload: bytes, n: int) -> bytes:
        return self._library.lz_decode(payload, n, self.name)


@register("lzrw1")
class Lzrw1(LzKernel):
    """Single-pass LZ77 compressor matching Williams's LZRW1.

    Args:
        table_bits: log2 of the hash-table entry count.  12 matches the
            16-KByte table of the measured system; smaller tables trade
            compression ratio for memory.
    """

    def __init__(self, table_bits: int = 12):
        if not 4 <= table_bits <= 20:
            raise ValueError(f"table_bits out of range: {table_bits}")
        self.table_bits = table_bits
        super().__init__()

    def result_cache_key(self):
        # table_bits changes which candidates the hash table remembers and
        # therefore the emitted items; it is the only output-affecting knob.
        return ("lzrw1", self.table_bits)

    @property
    def hash_table_bytes(self) -> int:
        """Memory footprint of the hash table (4-byte entries, as in
        Sprite): the compiled encoder's table is exactly this size."""
        return 4 << self.table_bits

    def _encode(self, data: bytes, n: int) -> Optional[bytes]:
        return self._library.lzrw1_encode(data, n, self.table_bits)
