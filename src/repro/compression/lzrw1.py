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
(``lzrw1_encode`` in ``_lz.c`` beside this module) and the seed's Python
loop (:class:`~repro.compression._seed_reference.SeedLzrw1`): the
oracle, what ``fast=False`` runs, and the silent fallback wherever the
library cannot be built or loaded.  Two decoders read them, and
``lzss``'s: ``lz_decode`` in the same library and :func:`decode_items`,
its Python twin under the same terms.

``lzss`` is two-path the same way, against the seed's ``SeedLzss``;
:class:`LzKernel` is the choice both kernels make.

``_lz.c`` is the one compiled library of the package: this module
builds it when the first ``lzrw1`` or ``lzss`` instance whose ``fast``
is not ``False`` is made, caches it under ``$XDG_CACHE_HOME/repro`` and
calls it through :mod:`ctypes` (:func:`compiled_library`).
"""

from __future__ import annotations

import os
import sys
from typing import Callable, Dict, List, NamedTuple, Optional

from .base import Compressor, CorruptDataError, register

_MAX_OFFSET = 4095
_MIN_MATCH = 3
_MAX_MATCH = 18
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


#: The compiled library's source, shipped beside this module.
_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_lz.c")


class CompiledLz(NamedTuple):
    """The compiled library's entry points, each emitting (or raising)
    exactly what its Python twin does."""

    #: ``lzrw1_encode(data, n, table_bits)``: :meth:`Lzrw1._encode`.
    lzrw1_encode: Callable[[bytes, int, int], Optional[bytes]]
    #: ``lzss_encode(data, n, chain_depth, lazy)``:
    #: :meth:`~repro.compression.lzss.Lzss._encode`.
    lzss_encode: Callable[[bytes, int, int, bool], Optional[bytes]]
    #: ``decode(payload, n, name)``: :func:`decode_items`.
    decode: Callable[[bytes, int, str], bytes]


#: What :func:`compiled_library` resolved: empty until its first call,
#: then ``[library]`` — the entry points, or ``None`` after any failure.
_COMPILED: List[Optional[CompiledLz]] = []


def compiled_library() -> Optional[CompiledLz]:
    """The compiled LZ library, or ``None`` where it cannot be built or
    loaded.  Tried once per process (forked workers inherit the
    outcome); raises nothing."""
    if not _COMPILED:
        try:
            library = _load_compiled()
        except Exception:   # any failure means the Python loops
            library = None
        _COMPILED.append(library)
    return _COMPILED[0]


def compile_command() -> List[str]:
    """The command that builds a shared library from one C file (append
    ``-o <library> <source>``): ``$CC``, else the compiler Python was
    built with (``sysconfig``'s, the one setuptools uses)."""
    import shlex

    compiler = os.environ.get("CC")
    if not compiler:
        import sysconfig    # its data module costs 70 KB: only to build

        compiler = sysconfig.get_config_var("CC") or "cc"
    return shlex.split(compiler) + ["-O2", "-shared", "-fPIC"]


def _library_path() -> str:
    """``$XDG_CACHE_HOME/repro/lz-<key>.so`` (``~/.cache`` without the
    variable); ``key`` hashes the source, ``$CC`` and the platform."""
    import hashlib

    with open(_SOURCE, "rb") as handle:
        source = handle.read()
    target = f"{sys.platform}-{os.uname().machine}-{sys.maxsize:x}"
    key = hashlib.sha256(b"\0".join([
        source, os.environ.get("CC", "").encode(),
        target.encode()])).hexdigest()[:24]
    cache = os.path.join(os.environ.get("XDG_CACHE_HOME")
                         or os.path.expanduser("~/.cache"), "repro")
    return os.path.join(cache, f"lz-{key}.so")


def _load_compiled() -> Optional[CompiledLz]:
    """Build ``_lz.c`` at :func:`_library_path` if need be and wrap the
    loaded functions.  The library is loaded only from a directory owned
    by this uid that no one else may write to, and only if it ends with
    the SHA-256 of the rest: ``dlopen`` of a truncated library can kill
    the process with SIGBUS rather than fail."""
    import ctypes
    import hashlib
    import threading

    path = _library_path()
    cache = os.path.dirname(path)
    os.makedirs(cache, mode=0o700, exist_ok=True)
    owner = os.stat(cache)
    if owner.st_uid != os.getuid() or owner.st_mode & 0o022:
        return None
    for built in (False, True):     # missing or damaged: build it, once
        library = b""
        if os.path.exists(path):
            with open(path, "rb") as handle:
                library = handle.read()
        if hashlib.sha256(library[:-32]).digest() == library[-32:]:
            break
        if built:
            return None
        _build(path)
    loaded = ctypes.CDLL(path)
    c_bytes, c_int, c_long = ctypes.c_char_p, ctypes.c_int, ctypes.c_long
    c_table = ctypes.POINTER(ctypes.c_int32)
    lzrw1 = loaded.lzrw1_encode
    lzrw1.argtypes = (c_bytes, c_long, c_int, c_table, c_bytes)
    lzss = loaded.lzss_encode
    lzss.argtypes = (c_bytes, c_long, c_long, c_int, c_table, c_table,
                     c_bytes)
    decoder = loaded.lz_decode
    decoder.argtypes = (c_bytes, c_long, c_long, c_bytes,
                        ctypes.POINTER(c_long))
    for function in (lzrw1, lzss, decoder):
        function.restype = c_long

    # The scratch is process-wide and only grows: lzrw1's table per
    # size (exactly 4 << table_bits bytes), lzss's 4,096 heads and
    # chain, one output buffer and the decoder's error position.  ctypes
    # drops the GIL for a call, so each call holds the lock from its
    # first write to the copy out of the buffer.
    lock = threading.Lock()
    tables: Dict[int, object] = {}
    heads = (ctypes.c_int32 * 4096)()
    chain = [(ctypes.c_int32 * 0)()]
    outs = [ctypes.create_string_buffer(0)]
    where = (c_long * 2)()

    def out_of(size: int):
        if len(outs[0]) < size:
            outs[0] = ctypes.create_string_buffer(size)
        return outs[0]

    def lzrw1_encode(data: bytes, n: int, table_bits: int
                     ) -> Optional[bytes]:
        if type(data) is not bytes:
            data = bytes(data)
        with lock:
            table = tables.get(table_bits)
            if table is None:
                table = tables[table_bits] = (
                    ctypes.c_int32 * (1 << table_bits))()
            out = out_of(n + 64)
            length = lzrw1(data, n, table_bits, table, out)
            return out[:length] if length >= 0 else None

    def lzss_encode(data: bytes, n: int, chain_depth: int, lazy: bool
                    ) -> Optional[bytes]:
        if type(data) is not bytes:
            data = bytes(data)
        # No chain holds more than _MAX_OFFSET candidates in reach.
        depth = min(chain_depth, _MAX_OFFSET + 1)
        with lock:
            if len(chain[0]) < n:
                chain[0] = (ctypes.c_int32 * n)()
            out = out_of(n + 64)
            length = lzss(data, n, depth, lazy, heads, chain[0], out)
            return out[:length] if length >= 0 else None

    def decode(payload: bytes, n: int, name: str) -> bytes:
        if type(payload) is not bytes:
            payload = bytes(payload)
        end = len(payload)
        with lock:
            # A copy item is 2 bytes for at most 18, and the last item
            # may run 17 bytes past n.
            out = out_of(min(n, 9 * end) + _MAX_MATCH)
            length = decoder(payload, end, n, out, where)
            if length >= 0:
                return out[:length]
            offset, position = where
        if length == -1:
            raise CorruptDataError(f"{name}: truncated control word")
        if length == -2:
            raise CorruptDataError(f"{name}: truncated copy item")
        raise CorruptDataError(f"{name}: bad copy offset {offset} at "
                               f"output position {position}")

    return CompiledLz(lzrw1_encode, lzss_encode, decode)


def _build(path: str) -> None:
    """Compile ``_lz.c`` to ``path``, checksum appended, through a
    temporary file and :func:`os.replace`: no reader sees half a
    library, and none that a process has mapped is cut."""
    import hashlib
    import subprocess
    import tempfile

    handle, partial = tempfile.mkstemp(".partial", "lz-",
                                       os.path.dirname(path))
    os.close(handle)
    try:
        subprocess.run(compile_command() + ["-o", partial, _SOURCE],
                       check=True, capture_output=True, timeout=120)
        with open(partial, "rb") as handle:
            built = handle.read()
        with open(partial, "ab") as handle:
            handle.write(hashlib.sha256(built).digest())
        os.replace(partial, path)
    finally:
        if os.path.exists(partial):
            os.unlink(partial)


class LzKernel(Compressor):
    """What :class:`Lzrw1` and :class:`~repro.compression.lzss.Lzss`
    share: the compiled library unless ``fast`` is ``False`` or it did
    not load, else the seed's encoder (a subclass's ``_encode``) and
    :func:`decode_items`."""

    def __init__(self, fast: Optional[bool] = None):
        super().__init__(fast)
        if self._compiled() is None:    # the fallback, before any fork
            from . import _seed_reference  # noqa: F401

    def _compiled(self) -> Optional[CompiledLz]:
        """The compiled library this instance runs, or ``None``."""
        return None if self.fast is False else compiled_library()

    def _decode(self, payload: bytes, n: int) -> bytes:
        library = self._compiled()
        decode = decode_items if library is None else library.decode
        return decode(payload, n, self.name)


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
        library = self._compiled()
        if library is not None:
            return library.lzrw1_encode(data, n, self.table_bits)
        from ._seed_reference import SeedLzrw1

        result = SeedLzrw1(self.table_bits).compress(data)
        return None if result.stored_raw else result.payload
