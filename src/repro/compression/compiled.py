"""The package's one compiled library: build, cache, trust check, load.

``_kernels.c`` beside this module holds the C twins of the LZ pair's
encoders and their shared item decoder, of the six word kernels'
encoders (``rle``, ``bdi``, ``varint-delta``, ``wk``, ``fpc``,
``cpack``) and of the ``rle`` and ``cpack`` decoders.  Each emits, or
raises, exactly what its kernel's Python loop does (the oracle that
``fast=False`` runs).  The library is built the first time a kernel
that has entry points here is made with ``fast`` not ``False``
(:class:`~repro.compression.base.Compressor` resolves it in
``__init__``, so a forked worker loads nothing later), cached under
``$XDG_CACHE_HOME/repro`` and called through :mod:`ctypes`
(:func:`compiled_library`).  Where it cannot be built or loaded, every
kernel silently runs its Python path.
"""

from __future__ import annotations

import os
import struct
import sys
from typing import Callable, List, NamedTuple, Optional

from .base import CorruptDataError

#: The library's source, shipped beside this module.
_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "_kernels.c")

#: An item can run this far past the declared size (lzrw1.py's format).
_MAX_MATCH = 18
#: The farthest back an LZ copy reaches: no lzss chain needs more.
_MAX_OFFSET = 4095

Encoder = Callable[[bytes, int], Optional[bytes]]
Decoder = Callable[[bytes, int], bytes]


class CompiledKernels(NamedTuple):
    """The compiled library's entry points, each emitting (or raising)
    exactly what its Python twin does.  An encoder returns its kernel's
    ``_encode(data, n)``: the encoding, or ``None``; a decoder its
    ``_decode(payload, n)``."""

    #: ``lzrw1_encode(data, n, table_bits)``: ``Lzrw1._encode``.
    lzrw1_encode: Callable[[bytes, int, int], Optional[bytes]]
    #: ``lzss_encode(data, n, chain_depth, lazy)``: ``Lzss._encode``.
    lzss_encode: Callable[[bytes, int, int, bool], Optional[bytes]]
    #: ``lz_decode(payload, n, name)``: :func:`~.lzrw1.decode_items`.
    lz_decode: Callable[[bytes, int, str], bytes]
    rle_encode: Encoder
    bdi_encode: Encoder
    delta_encode: Encoder
    wk_encode: Encoder
    fpc_encode: Encoder
    cpack_encode: Encoder
    rle_decode: Decoder
    cpack_decode: Decoder


#: What :func:`compiled_library` resolved: empty until its first call,
#: then ``[library]`` — the entry points, or ``None`` after any failure.
_COMPILED: List[Optional[CompiledKernels]] = []


def compiled_library() -> Optional[CompiledKernels]:
    """The compiled kernel library, or ``None`` where it cannot be built
    or loaded.  Tried once per process (forked workers inherit the
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
    """``$XDG_CACHE_HOME/repro/kernels-<key>.so`` (``~/.cache`` without
    the variable); ``key`` hashes the source, ``$CC`` and the platform."""
    import hashlib

    with open(_SOURCE, "rb") as handle:
        source = handle.read()
    target = f"{sys.platform}-{os.uname().machine}-{sys.maxsize:x}"
    key = hashlib.sha256(b"\0".join([
        source, os.environ.get("CC", "").encode(),
        target.encode()])).hexdigest()[:24]
    cache = os.path.join(os.environ.get("XDG_CACHE_HOME")
                         or os.path.expanduser("~/.cache"), "repro")
    return os.path.join(cache, f"kernels-{key}.so")


#: Each decoder's negative returns, as its Python twin's messages.
_RLE_ERRORS = {
    -1: "rle: truncated literal block",
    -2: "rle: truncated run",
    -3: "rle: output runs past the declared size",
}
_CPACK_ERRORS = {
    -1: "cpack: header too short",
    -2: "cpack: word count inconsistent with size",
    -3: "cpack: bit stream exhausted",
    -4: "cpack: unknown extension code 3",
}


def _load_compiled() -> Optional[CompiledKernels]:
    """Build ``_kernels.c`` at :func:`_library_path` if need be and wrap
    the loaded functions.  The library is loaded only from a directory
    owned by this uid that no one else may write to, and only if it ends
    with the SHA-256 of the rest: ``dlopen`` of a truncated library can
    kill the process with SIGBUS rather than fail."""
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

    def function(name: str, *argtypes):
        entry = getattr(loaded, name)
        entry.argtypes = argtypes
        entry.restype = c_long
        return entry

    lzrw1 = function("lzrw1_encode", c_bytes, c_long, c_int, c_table,
                     c_bytes)
    lzss = function("lzss_encode", c_bytes, c_long, c_long, c_int, c_table,
                    c_table, c_bytes)
    lz = function("lz_decode", c_bytes, c_long, c_long, c_bytes,
                  ctypes.POINTER(c_long))

    # The scratch is process-wide and only grows: lzrw1's table per
    # size (exactly 4 << table_bits bytes), lzss's 4,096 heads and
    # chain, cpack's 64 KBytes of counts, one output buffer and the LZ
    # decoder's error position.
    # ctypes drops the GIL for a call, so each call holds the lock from
    # its first write to the copy out of the buffer.
    lock = threading.Lock()
    tables = {}
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

    def lz_decode(payload: bytes, n: int, name: str) -> bytes:
        if type(payload) is not bytes:
            payload = bytes(payload)
        end = len(payload)
        with lock:
            # A copy item is 2 bytes for at most 18, and the last item
            # may run 17 bytes past n.
            out = out_of(min(n, 9 * end) + _MAX_MATCH)
            length = lz(payload, end, n, out, where)
            if length >= 0:
                return out[:length]
            offset, position = where
        if length == -1:
            raise CorruptDataError(f"{name}: truncated control word")
        if length == -2:
            raise CorruptDataError(f"{name}: truncated copy item")
        raise CorruptDataError(f"{name}: bad copy offset {offset} at "
                               f"output position {position}")

    def word_encoder(name: str, *scratch) -> Encoder:
        entry = function(name, c_bytes, c_long, c_bytes,
                         *[c_bytes for _ in scratch])

        def encode(data: bytes, n: int) -> Optional[bytes]:
            if type(data) is not bytes:
                data = bytes(data)
            with lock:
                out = out_of(2 * n + 64)
                length = entry(data, n, out, *scratch)
                if length >= 0:
                    return out[:length]
            if length == -1:
                return None
            # wk's stream lengths are 16-bit fields: what struct.pack
            # raises in the Python loop.
            raise struct.error(f"{name}: a stream of more than 65,535 "
                               "bytes")
        return encode

    def word_decoder(name: str, errors) -> Decoder:
        entry = function(name, c_bytes, c_long, c_long, c_bytes)

        def decode(payload: bytes, n: int) -> bytes:
            if type(payload) is not bytes:
                payload = bytes(payload)
            with lock:
                out = out_of(n)
                length = entry(payload, len(payload), n, out)
                if length >= 0:
                    return out[:length]
            raise CorruptDataError(errors[length])
        return decode

    return CompiledKernels(
        lzrw1_encode, lzss_encode, lz_decode,
        word_encoder("rle_encode"), word_encoder("bdi_encode"),
        word_encoder("delta_encode"), word_encoder("wk_encode"),
        word_encoder("fpc_encode"),
        # cpack's count of dictionary entries per top two bytes.
        word_encoder("cpack_encode", ctypes.create_string_buffer(1 << 16)),
        word_decoder("rle_decode", _RLE_ERRORS),
        word_decoder("cpack_decode", _CPACK_ERRORS),
    )


def _build(path: str) -> None:
    """Compile ``_kernels.c`` to ``path``, checksum appended, through a
    temporary file and :func:`os.replace`: no reader sees half a
    library, and none that a process has mapped is cut."""
    import hashlib
    import subprocess
    import tempfile

    handle, partial = tempfile.mkstemp(".partial", "kernels-",
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
