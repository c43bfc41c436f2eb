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

Two encoders emit these bytes, held **bit-identical** by
``tests/compression/test_golden_kernels.py`` and
``tests/compression/test_lzrw1_compiled.py``: the compiled one
(``lzrw1_encode`` in the package's one compiled library, ``_kernels.c``,
loaded by :func:`~repro.compression.compiled.compiled_library`) and the
seed's Python loop (:class:`~repro.compression._seed_reference.SeedLzrw1`):
the oracle, what ``fast=False`` runs, and the silent fallback wherever
the library cannot be built or loaded.  Two decoders read them, and
``lzss``'s: ``lz_decode`` in the same library and :func:`decode_items`,
its Python twin under the same terms.

``lzss`` is two-path the same way, against the seed's ``SeedLzss``;
:class:`LzKernel` is the choice both kernels make.
"""

from __future__ import annotations

from typing import Optional

from .base import Compressor, CorruptDataError, register

_MIN_MATCH = 3
_GROUP = 16


def decode_items(payload: bytes, original_size: int, name: str) -> bytes:
    """Decode the copy/literal item stream ``lzrw1`` and ``lzss`` share.

    ``name`` prefixes the :class:`CorruptDataError` messages; a stream
    that ends short of ``original_size`` or runs an item past it is the
    caller's to reject (:meth:`Compressor.decompress` does).  The loop
    reads one control bit per item; only an all-literal group is copied
    as a slice (a decoder restructured around literal runs measured
    0.82x: stored pages are match-heavy).
    """
    want = original_size
    out = bytearray()
    i = 0
    end = len(payload)
    olen = 0
    while i < end and olen < want:
        if i + 2 > end:
            raise CorruptDataError(f"{name}: truncated control word")
        control = payload[i] | (payload[i + 1] << 8)
        i += 2
        if control == 0:
            # All sixteen items are literals: one slice copy.
            take = _GROUP
            if take > end - i:
                take = end - i
            if take > want - olen:
                take = want - olen
            out += payload[i:i + take]
            i += take
            olen += take
            continue
        for bit in range(_GROUP):
            if i >= end or olen >= want:
                break
            if (control >> bit) & 1:
                if i + 2 > end:
                    raise CorruptDataError(f"{name}: truncated copy item")
                b0 = payload[i]
                b1 = payload[i + 1]
                i += 2
                length = (b0 >> 4) + _MIN_MATCH
                offset = ((b0 & 0x0F) << 8) | b1
                if offset == 0 or offset > olen:
                    raise CorruptDataError(
                        f"{name}: bad copy offset {offset} at output "
                        f"position {olen}"
                    )
                start = olen - offset
                if offset >= length:
                    out += out[start:start + length]
                elif offset == 1:
                    out += out[start:] * length
                else:
                    for k in range(length):  # self-overlapping copy
                        out.append(out[start + k])
                olen += length
            else:
                out.append(payload[i])
                i += 1
                olen += 1
    return bytes(out)


class LzKernel(Compressor):
    """What :class:`Lzrw1` and :class:`~repro.compression.lzss.Lzss`
    share: the compiled library unless ``fast`` is ``False`` or it did
    not load, else the seed's encoder (a subclass's ``_encode``) and
    :func:`decode_items`."""

    uses_library = True

    def __init__(self, fast: Optional[bool] = None):
        super().__init__(fast)
        if self._library is None:    # the fallback, before any fork
            from . import _seed_reference  # noqa: F401

    def _decode(self, payload: bytes, n: int) -> bytes:
        library = self._library
        if library is None:
            return decode_items(payload, n, self.name)
        return library.lz_decode(payload, n, self.name)


@register("lzrw1")
class Lzrw1(LzKernel):
    """Single-pass LZ77 compressor matching Williams's LZRW1.

    Args:
        table_bits: log2 of the hash-table entry count.  12 matches the
            16-KByte table of the measured system; smaller tables trade
            compression ratio for memory.
        fast: as for every :class:`Compressor`.  ``False`` runs the
            seed's Python loop; otherwise the compiled encoder runs if
            it loads, else that loop.
    """

    def __init__(self, table_bits: int = 12, fast: Optional[bool] = None):
        if not 4 <= table_bits <= 20:
            raise ValueError(f"table_bits out of range: {table_bits}")
        self.table_bits = table_bits
        super().__init__(fast)

    def result_cache_key(self):
        # table_bits changes which candidates the hash table remembers and
        # therefore the emitted items; it is the only output-affecting knob.
        # Both encoders emit the same bytes, so they share one key.
        return ("lzrw1", self.table_bits)

    @property
    def hash_table_bytes(self) -> int:
        """Memory footprint of the hash table (4-byte entries, as in
        Sprite): the compiled encoder's table is exactly this size."""
        return 4 << self.table_bits

    def _encode(self, data: bytes, n: int) -> Optional[bytes]:
        library = self._library
        if library is not None:
            return library.lzrw1_encode(data, n, self.table_bits)
        from ._seed_reference import SeedLzrw1

        result = SeedLzrw1(self.table_bits).compress(data)
        return None if result.stored_raw else result.payload
