"""Compressor framework for the compression cache.

The paper uses Williams's LZRW1 for on-line compression, but explicitly
calls for a design that "should allow different compression algorithms to
be used for different types of data" (Section 3).  This module defines the
interface every algorithm implements, a result record carrying the
bookkeeping the simulator needs, and a registry so algorithms can be chosen
by name from configuration.  The registry is a table (name -> module):
a kernel's module is imported the first time the kernel is asked for, so
a process that never compresses imports none of them, nor numpy.

All compressors are *lossless*: ``decompress(compress(data)) == data`` is a
hard invariant, enforced by the test suite (including property-based tests)
and optionally at runtime via :func:`Compressor.compress_verified`.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Optional, Tuple


class CompressionError(Exception):
    """Base class for compression failures."""


class CorruptDataError(CompressionError):
    """Raised when decompression input is malformed or truncated."""


class UnknownCompressorError(CompressionError, KeyError):
    """Raised when a compressor name is not present in the registry."""


@dataclass(frozen=True)
class CompressionResult:
    """Outcome of compressing one buffer.

    Attributes:
        payload: The compressed bytes (or the original bytes when the
            algorithm stored the data raw).
        original_size: Length of the input buffer in bytes.
        stored_raw: True when the algorithm fell back to storing the input
            uncompressed because compression would have expanded it.
    """

    payload: bytes
    original_size: int
    stored_raw: bool = False

    @classmethod
    def from_payload(
        cls, payload: bytes, original_size: int
    ) -> "CompressionResult":
        """The result behind a payload whose flag was not kept.

        The caches and stores hold payloads only.  A page is stored raw
        exactly when no encoding made it smaller — the one comparison in
        :meth:`Compressor.compress` — so the flag is that comparison.
        """
        return cls(payload, original_size, len(payload) >= original_size)

    @property
    def compressed_size(self) -> int:
        """Size in bytes of the stored representation."""
        return len(self.payload)

    @property
    def ratio(self) -> float:
        """Fraction of bytes remaining after compression (lower is better).

        Matches the paper's convention in Figure 1 and Table 1: a page that
        compresses 4:1 has ratio 0.25; an incompressible page has ratio 1.0
        (or slightly above, counting framing overhead).
        """
        if self.original_size == 0:
            return 1.0
        return self.compressed_size / self.original_size

    def savings(self) -> int:
        """Bytes saved relative to storing the input raw (may be negative)."""
        return self.original_size - self.compressed_size


class Compressor:
    """A lossless, self-contained page compressor.

    A kernel implements :meth:`_encode` and :meth:`_decode`; the
    :meth:`compress` / :meth:`decompress` envelope around them owns the
    store-raw rule, the empty page and the decoded-size check.  Results
    are a function of the input bytes and the constructor arguments
    (scratch never shows in the output — the compiled library resets
    its process-wide tables on every call), so one instance may be
    shared by a whole simulator; the ``adaptive`` selector is the
    deliberate exception — its choices follow page order — and opts out
    of result sharing (:meth:`result_cache_key`).

    Args:
        fast: tri-state flag, resolved once here: ``False`` forces a
            kernel's Python loop.  ``None`` and ``True`` are one value:
            the compiled library's entry points (:mod:`.compiled`) for
            a kernel that has them and where the library loads, else
            the kernel's numpy path (:mod:`.vectorized`) when numpy is
            importable, else the loop.  Every path produces
            bit-identical payloads.
    """

    #: Registry name; subclasses override.
    name: str = "abstract"

    #: Whether the compiled library holds this kernel's encoder.
    uses_library: bool = False

    def __init__(self, fast: Optional[bool] = None):
        # Imported here, where it is first needed: numpy comes with it,
        # and the error classes above must not bring numpy along.
        from . import vectorized

        self.fast = fast
        self._use_fast = vectorized.enabled(fast)
        #: The compiled library this instance runs, or ``None``:
        #: resolved here, so a forked worker loads nothing later.
        self._library = None
        if self.uses_library and fast is not False:
            from .compiled import compiled_library

            self._library = compiled_library()

    def _encode(self, data: bytes, n: int) -> Optional[bytes]:
        """The encoding of the ``n`` (>= 1) bytes of ``data``, or ``None``
        as soon as the kernel knows it cannot beat ``n`` bytes.

        Neither hook is abstract: a subclass may override
        :meth:`compress` / :meth:`decompress` whole, as the selector's
        ``compress`` and the test doubles do.
        """
        return None

    def _decode(self, payload: bytes, n: int) -> bytes:
        """Invert :meth:`_encode` for a page declared ``n`` bytes long.

        Raises:
            CorruptDataError: if ``payload`` does not decode cleanly.
        """
        raise NotImplementedError

    def compress(self, data: bytes) -> CompressionResult:
        """Compress ``data``; raw when no encoding made it smaller."""
        n = len(data)
        out = self._encode(data, n) if n else None
        if out is None or len(out) >= n:
            return CompressionResult(bytes(data), n, stored_raw=True)
        return CompressionResult(out, n)

    def decompress(self, result: CompressionResult) -> bytes:
        """Invert :meth:`compress`, returning the original bytes.

        Raises:
            CorruptDataError: if ``result`` does not decode cleanly.
        """
        if result.stored_raw:
            return result.payload
        n = result.original_size
        out = self._decode(result.payload, n)
        if len(out) != n:
            raise CorruptDataError(
                f"{self.name}: decoded {len(out)} bytes, expected {n}"
            )
        return out

    def result_cache_key(self):
        """Identity under which compress() results may be shared process-wide.

        :class:`~repro.compression.sampler.CompressionSampler` keeps a
        process-wide content-addressed cache of compression results so
        that independent machines (sweep points, benchmark reps) do not
        re-run the kernel on page content another run already compressed.
        Two compressor instances returning the same key MUST produce
        bit-identical ``compress()`` output for every input, so the key
        must include every output-affecting parameter.  Returning ``None``
        (the default) opts the algorithm out of sharing — the safe choice
        for anything stateful, randomized, or not known to need it.
        """
        return None

    def compress_verified(self, data: bytes) -> CompressionResult:
        """Compress and immediately verify the round trip.

        A debugging aid for a kernel under development; nothing in
        ``src/`` calls it (the simulator's ``paranoid`` mode checks each
        page as it comes back from the cache instead).
        """
        result = self.compress(data)
        restored = self.decompress(result)
        if restored != data:
            raise CorruptDataError(
                f"{self.name}: round trip mismatch "
                f"({len(data)} bytes in, {len(restored)} bytes out)"
            )
        return result

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r}>"


#: Where each built-in kernel lives: registry name -> module of this
#: package.  :func:`create` imports the module the first time its name
#: is asked for, and the module's ``@register`` fills :data:`_REGISTRY`.
#: A new kernel is a module with one ``@register`` and one row here
#: (tests/test_import_graph.py holds the two sets equal).
_KERNEL_MODULES: Dict[str, str] = {
    "adaptive": "adaptive",
    "bdi": "bdi",
    "cpack": "cpack",
    "fpc": "fpc",
    "lzrw1": "lzrw1",
    "lzss": "lzss",
    "null": "null",
    "rle": "rle",
    "varint-delta": "delta",
    "wk": "wk",
}

_REGISTRY: Dict[str, Callable[[], Compressor]] = {}


def register(name: str) -> Callable[[type], type]:
    """Class decorator registering a compressor factory under ``name``."""

    def deco(cls: type) -> type:
        if not issubclass(cls, Compressor):
            raise TypeError(f"{cls!r} is not a Compressor subclass")
        _REGISTRY[name] = cls
        cls.name = name
        return cls

    return deco


def create(name: str, **kwargs) -> Compressor:
    """Instantiate a registered compressor by name, importing its module
    on first use.

    Raises:
        UnknownCompressorError: if ``name`` was never registered.
    """
    if name not in _REGISTRY and name in _KERNEL_MODULES:
        importlib.import_module(f".{_KERNEL_MODULES[name]}", __package__)
    try:
        factory = _REGISTRY[name]
    except KeyError:
        known = ", ".join(available())
        raise UnknownCompressorError(
            f"unknown compressor {name!r}; known: {known}"
        ) from None
    return factory(**kwargs)


def available() -> Tuple[str, ...]:
    """Names of all registered compressors, sorted; imports nothing."""
    return tuple(sorted(_KERNEL_MODULES.keys() | _REGISTRY.keys()))


def iter_compressors() -> Iterator[Compressor]:
    """Yield a fresh default-configured instance of every registered algorithm."""
    for name in available():
        yield create(name)
