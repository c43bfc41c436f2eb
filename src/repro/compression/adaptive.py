"""Per-page adaptive kernel selection over the registered compressors.

Section 3 of the paper asks for a design that "should allow different
compression algorithms to be used for different types of data"; the
compressed-caching literature that followed (Pekhimenko's BDI line,
Touché's tag-overhead analysis) shows both why — each kernel wins on a
distinct data class — and what kills naive schemes: per-page metadata
and wasted trial compressions.  This module is the selector that closes
the loop.

:class:`AdaptiveCompressor` is itself a registered :class:`Compressor`
(``adaptive``), so it drops into ``MachineConfig.compressor``, any
``TierSpec``, and the ``--compressor``/``--tiers`` CLI grammars.  Per
page it:

1. computes a cheap content *kind* fingerprint (sampled word features:
   zero density, repetition, shared-high-bits pointers, small integers,
   printable text);
2. consults a learned ``kind -> kernel`` memo — on a hit the memoized
   kernel compresses the page directly (one kernel run, the common
   case);
3. on a memo miss (first sight of a kind, or a deterministic periodic
   re-trial) runs *trial compressions* of every candidate kernel
   through the process-wide content-addressed result cache
   (:func:`~repro.compression.sampler.shared_compress` — repeats are
   nearly free) and keeps the kernel that stores the page in the fewest
   bytes while meeting the paper's 4:3 threshold, breaking ties toward
   the CPU-cheaper kernel.

The stored payload is self-describing: one tag byte naming the chosen
kernel (the Touché-style metadata cost, charged honestly against the
ratio) followed by that kernel's payload, so any instance — the
demotion sink's recompression path, paranoid round-trip verification, a
different machine — can decompress it statelessly.  Pages no kernel
helps with fall back to ``stored_raw`` exactly like every other kernel.

Selection is deterministic: the memo is per-instance and depends only
on the sequence of pages compressed, and trial results are pure
functions of the bytes — so the same workload and seed always yield the
same kernel choices, pinned by golden digests.  Because the learned
memo makes outputs depend on page *order*, the adaptive compressor opts
out of the process-wide result cache for its own results
(``result_cache_key() is None``); only its trials share.
"""

from __future__ import annotations

import struct
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

from .base import (
    CompressionResult,
    Compressor,
    CorruptDataError,
    create,
    register,
)
from .sampler import CompressionSampler, shared_compress
from .stats import CompressionThreshold

#: Frozen payload-format constants: the tag byte each kernel's payload
#: carries.  Append-only — reassigning a tag is a breaking format change
#: (stored payloads name kernels by these values).
KERNEL_TAGS: Dict[str, int] = {
    "lzrw1": 0,
    "lzss": 1,
    "rle": 2,
    "wk": 3,
    "varint-delta": 4,
    "null": 5,
    "bdi": 6,
    "fpc": 7,
    "cpack": 8,
}
_TAG_NAMES: Dict[int, str] = {tag: name for name, tag in KERNEL_TAGS.items()}

#: Default candidate kernels, CPU-cheapest first (the tie-break order).
#: ``null`` is omitted (it never compresses) and ``adaptive`` must not
#: nest.
DEFAULT_CANDIDATES: Tuple[str, ...] = (
    "rle", "bdi", "varint-delta", "wk", "fpc", "cpack", "lzrw1", "lzss",
)

#: Sampled chunks per page for the kind fingerprint: ``_KIND_CHUNKS``
#: runs of ``_CHUNK_WORDS`` consecutive 32-bit words, spread evenly
#: across the page (32 words total).
_KIND_CHUNKS = 4
_CHUNK_WORDS = 8
_KIND_SAMPLES = _KIND_CHUNKS * _CHUNK_WORDS

#: Byte-class table: printable ASCII maps to 1, everything else to 0,
#: so printable density is one C-level ``translate().count()``.
_PRINTABLE = bytes(1 if 0x20 <= b <= 0x7E else 0 for b in range(256))

_unpack_chunk = struct.Struct(f"<{_CHUNK_WORDS}I").unpack_from


def page_kind(data: bytes) -> Tuple:
    """A cheap, deterministic content-class fingerprint.

    Samples ``_KIND_SAMPLES`` 32-bit words — ``_KIND_CHUNKS`` short
    consecutive runs spread across the page — and buckets five features
    to fifths: zero words, exact word repetition, pointer-likeness
    (adjacent words sharing their high 22 bits), small integers, and
    printable-ASCII density.  Pages from the same generator land in the
    same bucket tuple, which is all the memo needs — the fingerprint
    never affects correctness, only which kernel is tried first.
    """
    n = len(data)
    if n < 4 * _KIND_SAMPLES:
        return ("tiny", n)
    stride = (n // _KIND_CHUNKS) & ~3
    span = 4 * _CHUNK_WORDS
    words: Tuple[int, ...] = ()
    sample = b""
    for offset in range(0, stride * _KIND_CHUNKS, stride):
        words += _unpack_chunk(data, offset)
        sample += data[offset : offset + span]
    zeros = 0
    small = 0
    for word in words:
        if word == 0:
            zeros += 1
        elif word < 0x10000:
            small += 1
    printable = sample.translate(_PRINTABLE).count(1)
    repeats = 0
    shared_high = 0
    for prev, word in zip(words, words[1:]):
        if prev == word:
            repeats += 1
        elif (prev >> 10) == (word >> 10):
            shared_high += 1
    count = len(words)
    return (
        4 * zeros // count,
        4 * repeats // count,
        4 * shared_high // count,
        4 * small // count,
        4 * printable // (4 * count),
    )


@register("adaptive")
class AdaptiveCompressor(Compressor):
    """Selector-compressor: per page, the best registered kernel.

    Args:
        fast: tri-state vectorization flag, forwarded to every candidate
            kernel (selection is unaffected; payloads are pinned
            bit-identical across modes).
        candidates: kernel names to choose among, CPU-cheapest first
            (the tie-break order).  Defaults to
            :data:`DEFAULT_CANDIDATES`.  A kernel is *eligible* only if
            its tagged payload meets the paper's 4:3 keep-compressed
            rule.
        resample_every: re-run full trials after this many memo hits on
            one kind, so a drifting kind re-elects its kernel
            deterministically.
        memo_max: bound on remembered kinds (FIFO eviction).
        result_memo_max: bound on the per-instance finished-result memo
            (content fingerprint -> tagged result), which makes re-seen
            page bytes cost one hash plus a dict probe instead of a
            kernel run.  Per-instance rather than process-wide because
            the selector's choice depends on this instance's history;
            FIFO eviction.
    """

    def __init__(
        self,
        fast: Optional[bool] = None,
        candidates: Optional[Sequence[str]] = None,
        resample_every: int = 32,
        memo_max: int = 1024,
        result_memo_max: int = 8192,
    ):
        if resample_every < 1:
            raise ValueError("resample_every must be >= 1")
        if memo_max < 1:
            raise ValueError("memo_max must be >= 1")
        if result_memo_max < 1:
            raise ValueError("result_memo_max must be >= 1")
        names = tuple(candidates) if candidates is not None else (
            DEFAULT_CANDIDATES
        )
        if not names:
            raise ValueError("adaptive: need at least one candidate kernel")
        for name in names:
            if name == "adaptive":
                raise ValueError("adaptive: candidates cannot nest adaptive")
            if name not in KERNEL_TAGS:
                known = ", ".join(sorted(KERNEL_TAGS))
                raise ValueError(
                    f"adaptive: no payload tag for kernel {name!r}; "
                    f"known: {known}"
                )
        super().__init__(fast)
        self.candidate_names = names
        self.threshold = CompressionThreshold()
        self.resample_every = resample_every
        self.memo_max = memo_max
        self.result_memo_max = result_memo_max
        self._kernels: Tuple[Compressor, ...] = tuple(
            create(name, fast=fast) for name in names
        )
        #: kind -> [candidate index, memo hits since last trial]
        self._memo: Dict[Tuple, List[int]] = {}
        #: content fingerprint -> (finished tagged result, chosen
        #: kernel name or None for a raw fallback); FIFO-bounded.
        self._results: "OrderedDict[bytes, Tuple[CompressionResult, Optional[str]]]" = (
            OrderedDict()
        )
        #: tag -> kernel instance, for decompressing any tagged payload
        #: (including tags outside this instance's candidate set).
        self._decoders: Dict[int, Compressor] = {
            KERNEL_TAGS[name]: kernel
            for name, kernel in zip(names, self._kernels)
        }
        self.pages = 0
        self.result_hits = 0
        self.memo_hits = 0
        self.trials = 0
        self.threshold_misses = 0
        self.raw_fallbacks = 0
        self.chosen: Dict[str, int] = {}

    def result_cache_key(self):
        # The learned memo makes output a function of page *order*, not
        # just page bytes, so two instances may legitimately disagree —
        # sharing would be incorrect.  The trial compressions inside
        # still share through each candidate kernel's own key.
        return None

    def _run_trials(
        self, data: bytes, n: int, fp: bytes
    ) -> Tuple[int, CompressionResult]:
        """Try every candidate; return the winning (index, result).

        The winner stores the page in the fewest bytes (counting the tag
        byte) while meeting the threshold; candidate order breaks ties
        toward the cheaper kernel.  With no eligible kernel the smallest
        result still wins — the caller's raw fallback and the 4:3
        accounting downstream handle the rest.
        """
        best = None
        best_eligible = None
        for index, kernel in enumerate(self._kernels):
            result = shared_compress(kernel, data, fp)
            size = result.compressed_size
            if best is None or size < best[0]:
                best = (size, index, result)
            if self.threshold.keep_compressed(n, size + 1) and (
                best_eligible is None or size < best_eligible[0]
            ):
                best_eligible = (size, index, result)
        if best_eligible is None:
            self.threshold_misses += 1
            best_eligible = best
        return best_eligible[1], best_eligible[2]

    def compress(self, data: bytes) -> CompressionResult:
        n = len(data)
        self.pages += 1
        if n == 0:
            return CompressionResult(b"", 0, stored_raw=True)
        fp = CompressionSampler.fingerprint(data)
        memoized = self._results.get(fp)
        if memoized is not None and memoized[0].original_size == n:
            # Re-seen bytes: replay this instance's finished result —
            # the hot steady-state path, one hash plus a dict probe.
            self.result_hits += 1
            final, name = memoized
            if name is None:
                self.raw_fallbacks += 1
            else:
                self.chosen[name] = self.chosen.get(name, 0) + 1
            return final
        kind = page_kind(data)
        entry = self._memo.get(kind)
        if entry is not None and entry[1] < self.resample_every:
            entry[1] += 1
            self.memo_hits += 1
            index = entry[0]
            result = shared_compress(self._kernels[index], data, fp)
            if not self.threshold.keep_compressed(
                n, result.compressed_size + 1
            ):
                self.threshold_misses += 1
        else:
            self.trials += 1
            index, result = self._run_trials(data, n, fp)
            self._memo[kind] = [index, 0]
            while len(self._memo) > self.memo_max:
                del self._memo[next(iter(self._memo))]
        if result.compressed_size + 1 >= n:
            self.raw_fallbacks += 1
            final = CompressionResult(bytes(data), n, stored_raw=True)
            name = None
        else:
            name = self.candidate_names[index]
            self.chosen[name] = self.chosen.get(name, 0) + 1
            tag = KERNEL_TAGS[name]
            final = CompressionResult(bytes([tag]) + result.payload, n)
        self._results[fp] = (final, name)
        while len(self._results) > self.result_memo_max:
            self._results.popitem(last=False)
        return final

    def _decode(self, payload: bytes, n: int) -> bytes:
        # The tag dispatch, to the tagged kernel's own ``_decode``: the
        # envelope around this call is the one size check a GET hit pays.
        if not payload:
            raise CorruptDataError("adaptive: empty payload")
        tag = payload[0]
        kernel = self._decoders.get(tag)
        if kernel is None:
            name = _TAG_NAMES.get(tag)
            if name is None:
                raise CorruptDataError(f"adaptive: unknown kernel tag {tag}")
            kernel = create(name, fast=self.fast)
            self._decoders[tag] = kernel
        return kernel._decode(payload[1:], n)

    def selection_snapshot(self) -> Dict[str, object]:
        """JSON-able selection counters for :class:`RunResult`."""
        return {
            "pages": self.pages,
            "result_hits": self.result_hits,
            "memo_hits": self.memo_hits,
            "trials": self.trials,
            "threshold_misses": self.threshold_misses,
            "raw_fallbacks": self.raw_fallbacks,
            "kinds": len(self._memo),
            "chosen": {name: self.chosen[name]
                       for name in sorted(self.chosen)},
        }
