"""Compression algorithms and accounting for the compression cache.

Public surface:

* :class:`Compressor`, :class:`CompressionResult` — the algorithm interface.
* :func:`create` / :func:`available` — the name registry
  (``lzrw1``, ``lzss``, ``rle``, ``wk``, ``bdi``, ``fpc``, ``cpack``,
  ``varint-delta``, ``null``, and the ``adaptive`` selector).
* :class:`Lzrw1` — the paper's on-line algorithm (Williams 1991).
* :class:`AdaptiveCompressor` — per-page kernel selection over the
  registered family (see docs/kernels.md).
* :class:`CompressionThreshold`, :class:`CompressionStats` — the 4:3 rule
  and Table 1 accounting.
* :class:`CompressionSampler` — memoized measurement used by the simulator.
"""

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "adaptive": ("AdaptiveCompressor",),
    "base": (
        "CompressionError", "CompressionResult", "Compressor",
        "CorruptDataError", "UnknownCompressorError", "available", "create",
        "iter_compressors", "register",
    ),
    "bdi": ("BdiCompressor",),
    "cpack": ("CpackCompressor",),
    "delta": ("VarintDeltaCompressor",),
    "fpc": ("FpcCompressor",),
    "lzrw1": ("Lzrw1",),
    "lzss": ("Lzss",),
    "null": ("NullCompressor",),
    "rle": ("Rle",),
    "sampler": ("CompressionSampler",),
    "stats": ("CompressionStats", "CompressionThreshold"),
    "wk": ("WkCompressor",),
})
