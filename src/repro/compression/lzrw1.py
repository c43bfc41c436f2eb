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

Three encoders emit these bytes, held **bit-identical** by
``tests/compression/test_golden_kernels.py`` and
``tests/compression/test_lzrw1_compiled.py``:

* the seed implementation, frozen in
  :mod:`repro.compression._seed_reference`, which the other two are
  diffed against;
* the compiled encoder, ``_lzrw1.c`` beside this module: a C port of the
  Python loop below, built with the platform's C compiler the first time
  an instance whose ``fast`` is not ``False`` encodes a page, cached
  under ``$XDG_CACHE_HOME/repro`` and called through :mod:`ctypes`
  (:func:`compiled_encoder`).  It is the default whenever it loads,
  about 40x the Python loop.  Any failure to build or load it — no
  compiler (``CC=false``), a compile error, an unwritable or untrusted
  cache directory, a damaged library — falls back to the Python loop,
  once per process, silently;
* the Python loop (:meth:`Lzrw1._encode_python`): the fallback, what
  ``fast=False`` always runs, and the oracle the compiled encoder is
  tested against (:class:`PythonLzrw1` pins an instance to it).  It is
  a CPython-optimized rewrite of the seed.  The speed tricks:

  - three-byte hashes for the whole page are precomputed in one
    vectorized numpy pass (``_make_hashes``) instead of being evaluated
    per position in the interpreter;
  - the hash table persists across calls *and instances* and is never
    re-initialized: there is one table per ``table_bits`` in the
    process (the service builds a selector, hence an ``Lzrw1``, per
    virtual slot; a table each cost a shard about 8.7 MB at the default
    64 slots).  A parallel ``stamp`` list holds the epoch in which each
    slot was last written, and every call takes a fresh process-wide
    epoch, so a slot is valid exactly when its stamp equals the current
    call's epoch.  Both lists store plain loop-local ints, which makes
    every slot update a pointer store with no integer allocation;
  - when the stamp is already current it is *not* rewritten — the
    common candidate-hit path does one store, not two;
  - match extension compares the two candidate windows with a single
    C-level slice comparison; only on a mismatch does it locate the
    first differing byte via an XOR/lowest-set-bit trick (little-endian
    ``int.from_bytes``, so the lowest set byte is the mismatch
    position);
  - literal runs are emitted with one slice append per run (tracked via
    ``lit_start``) rather than one ``append`` per byte, and the group
    flush is detected by position (``flush_i``) so the literal path
    carries no per-item counter.
"""

from __future__ import annotations

import itertools
import os
import sys
from typing import Callable, Dict, List, Optional, Tuple

from .base import Compressor, CorruptDataError, register

try:  # numpy is the optional [fast] extra; the scalar fallback is complete
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via the no-numpy CI job
    _np = None

_MAX_OFFSET = 4095
_MIN_MATCH = 3
_MAX_MATCH = 18
_GROUP = 16
#: Williams's multiplicative-hash constant.  The hash of the three bytes
#: ``b0 b1 b2`` is ``((40543 * (((b0 << 8) ^ (b1 << 4) ^ b2) & 0xFFFF)) >> 4)``
#: masked to the table size — defined once here; :func:`_make_hashes` and the
#: scalar fallback below are the only implementations.
_HASH_MULTIPLIER = 40543

#: Below this input size the numpy round trip costs more than it saves.
_VECTOR_THRESHOLD = 256

#: Single-bit masks for the 16 control-word positions (index 16 - cap).
_BITS = [1 << k for k in range(_GROUP + 1)]

#: The encoder's scratch, shared by every instance in the process: one
#: ``(table, stamp)`` pair per ``table_bits``, built by the first call
#: at that size (an instance holds none, so constructing one allocates
#: nothing).  Sharing cannot change a payload: ``_encode`` reads a slot
#: only when its stamp equals the epoch it drew from :data:`_EPOCHS`,
#: which no other call ever draws, so what earlier calls (of any
#: instance) left in the lists is never read.  That holds while one
#: ``_encode`` runs at a time per process — it calls out to nothing that
#: could re-enter it, nothing in this package compresses from two
#: threads, and parallel sweeps and shards are processes, each with its
#: own copy of both.
_SCRATCH: Dict[int, Tuple[List[int], List[int]]] = {}
_EPOCHS = itertools.count(1)  # stamps start at 0: never current


def _hash_array(data: bytes, mask: int):
    """Hash of every 3-byte window of ``data`` as a uint32 numpy array."""
    d = _np.frombuffer(data, _np.uint8)
    k = d[:-2].astype(_np.uint32)
    k <<= 4
    k ^= d[1:-1]
    k <<= 4
    k ^= d[2:]
    k &= 0xFFFF
    k *= _HASH_MULTIPLIER
    k >>= 4
    k &= mask
    return k


def _make_hashes(
    data: bytes, n: int, mask: int, use_numpy: bool = True
) -> List[int]:
    """Hash of every 3-byte window of ``data``, as a plain list.

    Index ``i`` holds the hash of ``data[i:i+3]``; the list has ``n - 2``
    entries.  Only called with ``n >= _MIN_MATCH``.  Both branches are
    pure functions of (data, mask) — ``use_numpy`` only selects speed.
    """
    if use_numpy and _np is not None and n >= _VECTOR_THRESHOLD:
        return _hash_array(data, mask).tolist()
    mult = _HASH_MULTIPLIER
    return [
        ((mult * (((data[j] << 8) ^ (data[j + 1] << 4) ^ data[j + 2])
                  & 0xFFFF)) >> 4) & mask
        for j in range(n - 2)
    ]


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
    """:func:`lz_size_floor` counted with numpy: the ``size_floor`` of
    both LZ kernels on their numpy path.  It costs about 0.1 ms a
    4-KByte page, against about 0.8 ms for ``lzrw1``; the scalar count
    costs about 0.7 ms, half the scalar kernel, which made a cold pass
    slower, so a scalar kernel offers no floor."""
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


def _load_compiled():
    """Build ``_lzrw1.c`` (once per source, compiler and platform) and
    wrap the loaded function.

    The library is cached as ``$XDG_CACHE_HOME/repro/lzrw1-<key>.so``
    (``~/.cache`` without the variable), where ``key`` hashes the
    source, ``$CC`` (unset: the interpreter's compiler) and the
    platform.  It is compiled to a temporary name and moved into place
    with :func:`os.replace`, so concurrent builders leave one whole
    file.  It is loaded only from a directory owned by this uid that no
    one else may write to, and only if it ends with the SHA-256 of the
    rest (appended after the build): ``dlopen`` of a truncated library
    can kill the process with SIGBUS rather than fail.
    """
    import ctypes
    import hashlib

    with open(_SOURCE, "rb") as handle:
        source = handle.read()
    target = f"{sys.platform}-{os.uname().machine}-{sys.maxsize:x}"
    key = hashlib.sha256(b"\0".join([
        source, os.environ.get("CC", "").encode(),
        target.encode()])).hexdigest()[:24]
    cache = os.path.join(os.environ.get("XDG_CACHE_HOME")
                         or os.path.expanduser("~/.cache"), "repro")
    os.makedirs(cache, mode=0o700, exist_ok=True)
    owner = os.stat(cache)
    if owner.st_uid != os.getuid() or owner.st_mode & 0o022:
        return None
    path = os.path.join(cache, f"lzrw1-{key}.so")
    if not os.path.exists(path):
        import subprocess
        import tempfile

        handle, partial = tempfile.mkstemp(".partial", "lzrw1-", cache)
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
    with open(path, "rb") as handle:
        library = handle.read()
    if hashlib.sha256(library[:-32]).digest() != library[-32:]:
        return None
    function = ctypes.CDLL(path).lzrw1_encode
    function.argtypes = (ctypes.c_char_p, ctypes.c_long, ctypes.c_int,
                         ctypes.POINTER(ctypes.c_int32), ctypes.c_char_p)
    function.restype = ctypes.c_long
    # Process-wide like the Python loop's scratch, and so correct while
    # one ``_encode`` runs at a time (ctypes drops the GIL for the call).
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


@register("lzrw1")
class Lzrw1(Compressor):
    """Single-pass LZ77 compressor matching Williams's LZRW1.

    Args:
        table_bits: log2 of the hash-table entry count.  12 matches the
            16-KByte table of the measured system; smaller tables trade
            compression ratio for memory.
        fast: as for every :class:`Compressor`.  ``False`` runs the
            scalar Python loop; otherwise the compiled encoder runs if
            it loads, else the Python loop with the numpy hash
            precompute (scalar without numpy).
    """

    def __init__(self, table_bits: int = 12, fast: Optional[bool] = None):
        if not 4 <= table_bits <= 20:
            raise ValueError(f"table_bits out of range: {table_bits}")
        super().__init__(fast)
        self.table_bits = table_bits
        self._table_size = 1 << table_bits

    def result_cache_key(self):
        # table_bits changes which candidates the hash table remembers and
        # therefore the emitted items; it is the only output-affecting knob.
        # Every encoder emits the same bytes, so they share one key.
        return ("lzrw1", self.table_bits)

    @property
    def hash_table_bytes(self) -> int:
        """Memory footprint of the hash table (4-byte entries, as in
        Sprite): the compiled encoder's table is exactly this size."""
        return 4 * self._table_size

    def _compiled(self):
        """The compiled encoder this instance runs, or ``None``."""
        return None if self.fast is False else compiled_encoder()

    @property
    def size_floor(self) -> Optional[Callable[[bytes], int]]:
        # The numpy floor (about 0.1 ms a page) pays only against the
        # Python loop; the compiled encoder runs a page in about 20 us.
        if not self._use_fast or self._compiled() is not None:
            return None
        return numpy_size_floor

    def _encode(self, data: bytes, n: int) -> Optional[bytes]:
        encode = self._compiled()
        if encode is not None:
            return encode(data, n, self.table_bits)
        return self._encode_python(data, n)

    def _encode_python(self, data: bytes, n: int) -> Optional[bytes]:
        if n < _MIN_MATCH + 1:
            return None

        epoch = next(_EPOCHS)
        scratch = _SCRATCH.get(self.table_bits)
        if scratch is None:
            size = self._table_size
            scratch = _SCRATCH[self.table_bits] = ([0] * size, [0] * size)
        table, stamp = scratch
        hashes = _make_hashes(
            data, n, self._table_size - 1, self._use_fast
        )
        from_bytes = int.from_bytes
        bits = _BITS

        out = bytearray()
        items = bytearray()
        items_append = items.append
        out_append = out.append
        control = 0
        i = 0
        lit_start = 0          # first literal byte not yet copied to items
        flush_i = _GROUP       # input position at which the group fills
        limit = n - _MIN_MATCH

        while i <= limit:
            h = hashes[i]
            if stamp[h] == epoch:
                cand = table[h]
                table[h] = i
                if data[cand] == data[i] and i - cand <= _MAX_OFFSET:
                    max_len = n - i
                    if max_len > _MAX_MATCH:
                        max_len = _MAX_MATCH
                    a = data[cand:cand + max_len]
                    b = data[i:i + max_len]
                    if a == b:
                        length = max_len
                    else:
                        x = from_bytes(a, "little") ^ from_bytes(b, "little")
                        length = ((x & -x).bit_length() - 1) >> 3
                    if length >= _MIN_MATCH:
                        offset = i - cand
                        if lit_start != i:
                            items += data[lit_start:i]
                        items_append(
                            ((length - _MIN_MATCH) << 4) | (offset >> 8)
                        )
                        items_append(offset & 0xFF)
                        cap = flush_i - i       # group slots left before this
                        control |= bits[_GROUP - cap]
                        cap -= 1
                        i += length
                        lit_start = i
                        if cap == 0:
                            out_append(control & 0xFF)
                            out_append(control >> 8)
                            out += items
                            del items[:]
                            control = 0
                            if len(out) >= n:   # cannot beat raw any more
                                return None
                            flush_i = i + _GROUP
                        else:
                            flush_i = i + cap
                        continue
            else:
                stamp[h] = epoch
                table[h] = i
            i += 1
            if i == flush_i:
                if control:
                    items += data[lit_start:i]
                    out_append(control & 0xFF)
                    out_append(control >> 8)
                    out += items
                    del items[:]
                    control = 0
                else:           # all-literal group: two zero control bytes
                    out += b"\x00\x00"
                    out += data[lit_start:i]
                lit_start = i
                if len(out) >= n:
                    return None
                flush_i = i + _GROUP

        while i < n:            # tail: last 1-3 bytes are always literals
            i += 1
            if i == flush_i:
                if control:
                    items += data[lit_start:i]
                    out_append(control & 0xFF)
                    out_append(control >> 8)
                    out += items
                    del items[:]
                    control = 0
                else:
                    out += b"\x00\x00"
                    out += data[lit_start:i]
                lit_start = i
                if len(out) >= n:
                    return None
                flush_i = i + _GROUP

        if flush_i - n < _GROUP:    # partial final group pending
            items += data[lit_start:n]
            out_append(control & 0xFF)
            out_append(control >> 8)
            out += items
        return bytes(out)

    def _decode(self, payload: bytes, n: int) -> bytes:
        return decode_items(payload, n, "lzrw1")


class PythonLzrw1(Lzrw1):
    """``lzrw1`` that never runs the compiled encoder: the Python loop,
    with the numpy hash precompute unless ``fast=False``.  The oracle
    the compiled encoder is tested against, and what the harness's
    ``aggregate_speedup.lzrw1`` times against the seed kernel.  Not
    registered: its payloads are ``lzrw1``'s, under ``lzrw1``'s
    result-cache key."""

    def _compiled(self):
        return None
