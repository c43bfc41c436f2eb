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
(``_lzrw1.c`` beside this module, built when the first instance whose
``fast`` is not ``False`` is made, cached under ``$XDG_CACHE_HOME/repro``
and called through :mod:`ctypes`: :func:`compiled_encoder`), and the
seed's Python loop (:class:`~repro.compression._seed_reference.SeedLzrw1`):
the oracle, what ``fast=False`` runs, and the silent fallback wherever
the library cannot be built or loaded.
"""

from __future__ import annotations

import os
import sys
from typing import Callable, Dict, List, Optional

from .base import Compressor, CorruptDataError, register

try:  # numpy is the optional [fast] extra; the scalar fallback is complete
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via the no-numpy CI job
    _np = None

_MAX_OFFSET = 4095
_MIN_MATCH = 3
_MAX_MATCH = 18
_GROUP = 16
#: Below this input size the numpy round trip costs more than it saves.
_VECTOR_THRESHOLD = 256


def lz_size_floor(data: bytes, np=_np) -> int:
    """A lower bound on the bytes ``lzrw1`` or ``lzss`` store ``data`` in.

    Both write one item stream: copies of 3..18 bytes (2 bytes each),
    literals (1 byte each), a 2-byte control word per 16 items.  Let
    ``R`` be the positions whose trigram occurred at an earlier position.
    A copy of ``L`` bytes saves ``L - 2`` and each of its first ``L - 2``
    positions is such a position, so the copies save at most ``R``
    bytes.  Each copy holds at least one, so there are at least
    ``n - 2R`` items, and at least ``ceil(n / 18)``.  The bound is
    ``n - R`` plus their control words, capped at ``n`` (a page the
    stream cannot beat is stored raw in ``n``).

    ``np`` (numpy, or ``None`` for the scalar path) only counts the
    distinct trigrams, so both paths return the same value.  It sorts
    with the 16-bit stable (radix) argsort ``lzss`` already runs: the
    first ``np.sort`` in a process costs it 0.25-0.4 MBytes of peak
    memory.
    """
    n = len(data)
    if n < _MIN_MATCH:
        return n
    if np is not None and n >= _VECTOR_THRESHOLD:
        # Sorted by two stable passes over 16-bit keys: low, then high.
        t = np.frombuffer(data, np.uint8).astype(np.uint32)
        t = (t[:-2] << 16) | (t[1:-1] << 8) | t[2:]
        t = t[t.astype(np.uint16).argsort(kind="stable")]
        t = t[(t >> 8).astype(np.uint16).argsort(kind="stable")]
        trigrams = 1 + int(np.count_nonzero(t[1:] != t[:-1]))
    else:
        trigrams = len({data[i:i + 3] for i in range(n - 2)})
    seen_before = n - 2 - trigrams
    items = max(-(-n // _MAX_MATCH), n - 2 * seen_before)
    floor = n - seen_before + 2 * -(-items // _GROUP)
    return floor if floor < n else n


def numpy_size_floor(data: bytes) -> int:
    """:func:`lz_size_floor` counted with numpy, ``lzss``'s ``size_floor``:
    about 0.1 ms a page (the scalar count, 0.7 ms, made a cold pass slower)."""
    return lz_size_floor(data, _np)


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


#: The compiled encoder's source, shipped beside this module.
_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_lzrw1.c")
#: What :func:`compiled_encoder` resolved: empty until its first call,
#: then ``[encode]`` — the callable, or ``None`` after any failure.
_COMPILED: List[Optional[Callable[[bytes, int, int], Optional[bytes]]]] = []


def compiled_encoder() -> Optional[Callable[[bytes, int, int],
                                            Optional[bytes]]]:
    """``encode(data, n, table_bits)``: the compiled ``_encode``, or
    ``None`` where it cannot be built or loaded.  Tried once per process
    (forked workers inherit the outcome); raises nothing."""
    if not _COMPILED:
        try:
            encode = _load_compiled()
        except Exception:   # any failure means the Python loop
            encode = None
        _COMPILED.append(encode)
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
    """``$XDG_CACHE_HOME/repro/lzrw1-<key>.so`` (``~/.cache`` without the
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
    return os.path.join(cache, f"lzrw1-{key}.so")


def _load_compiled():
    """Build ``_lzrw1.c`` at :func:`_library_path` if need be and wrap
    the loaded function.  The library is loaded only from a directory
    owned by this uid that no one else may write to, and only if it ends
    with the SHA-256 of the rest: ``dlopen`` of a truncated library can
    kill the process with SIGBUS rather than fail."""
    import ctypes
    import hashlib

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
    function = ctypes.CDLL(path).lzrw1_encode
    function.argtypes = (ctypes.c_char_p, ctypes.c_long, ctypes.c_int,
                         ctypes.POINTER(ctypes.c_int32), ctypes.c_char_p)
    function.restype = ctypes.c_long
    # Process-wide, one table per size, so correct while one ``_encode``
    # runs at a time (ctypes drops the GIL for the call).
    tables: Dict[int, object] = {}     # exactly 4 << table_bits bytes
    buffers = [ctypes.create_string_buffer(0)]

    def encode(data: bytes, n: int, table_bits: int) -> Optional[bytes]:
        table = tables.get(table_bits)
        if table is None:
            table = tables[table_bits] = (ctypes.c_int32 * (1 << table_bits))()
        out = buffers[0]
        if len(out) < n + 64:
            out = buffers[0] = ctypes.create_string_buffer(n + 64)
        if type(data) is not bytes:
            data = bytes(data)
        length = function(data, n, table_bits, table, out)
        return out[:length] if length >= 0 else None

    return encode


def _build(path: str) -> None:
    """Compile ``_lzrw1.c`` to ``path``, checksum appended, through a
    temporary file and :func:`os.replace`: no reader sees half a
    library, and none that a process has mapped is cut."""
    import hashlib
    import subprocess
    import tempfile

    handle, partial = tempfile.mkstemp(".partial", "lzrw1-",
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


@register("lzrw1")
class Lzrw1(Compressor):
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
        super().__init__(fast)
        self.table_bits = table_bits
        if self._compiled() is None:    # the fallback, before any fork
            from . import _seed_reference  # noqa: F401

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

    def _compiled(self):
        """The compiled encoder this instance runs, or ``None``."""
        return None if self.fast is False else compiled_encoder()

    def _encode(self, data: bytes, n: int) -> Optional[bytes]:
        encode = self._compiled()
        if encode is not None:
            return encode(data, n, self.table_bits)
        from ._seed_reference import SeedLzrw1

        result = SeedLzrw1(self.table_bits).compress(data)
        return None if result.stored_raw else result.payload

    def _decode(self, payload: bytes, n: int) -> bytes:
        return decode_items(payload, n, "lzrw1")
