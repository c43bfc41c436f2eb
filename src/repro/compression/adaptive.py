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
   re-trial) runs *trial compressions* of every candidate kernel and
   keeps the kernel that stores the page in the fewest bytes while
   meeting the paper's 4:3 threshold, breaking ties toward the earlier
   candidate.  Every candidate runs in the compiled library
   (:mod:`.compiled`) where it loads: on the ``kv-mixed`` PUT pages the
   six word kernels together take about 56 us a page, less than half of
   what the raw-proof screen that once skipped the ones that provably
   store a page raw cost (126-131 us; docs/kernels.md has the record).  Only the
   winner's finished result is kept, process-wide
   (:func:`~repro.compression.sampler.shared_finished`), with the
   trial's outcome (:func:`~repro.compression.sampler.shared_trial`):
   any selector that trials the same bytes again does one lookup and
   runs no kernel, and the losers' payloads are dropped at once.

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
(``result_cache_key() is None``); what it shares is keyed by the kernel
it picked, never by the selector.
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
from .sampler import CompressionSampler, shared_finished, shared_trial
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

#: Default candidate kernels in tie-break order: a size tie elects the
#: earlier one, and the adaptive goldens pin this order (a new one moves
#: tie-breaks and digests).  It is not CPU order: per page of
#: ``perf._corpus_kinds(8)`` (the compiled library, 2-vCPU x86)
#: ``lzss`` took 38 us, ``rle``/``bdi``/``varint-delta``/``wk``/``fpc``
#: 6-9 us and ``cpack`` 11 us.  ``null`` is omitted (it never
#: compresses) and ``adaptive`` must not nest.  ``lzrw1`` is omitted
#: too: ``lzss`` writes lzrw1's stream format with a deeper search and
#: never stores a page in more bytes, so lzrw1 could only win a tie.
#: Its tag and decoder stay (stored payloads may carry it), and
#: ``candidates=`` may still name it.
DEFAULT_CANDIDATES: Tuple[str, ...] = (
    "rle", "bdi", "varint-delta", "wk", "fpc", "cpack", "lzss",
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
        fast: tri-state flag (:class:`Compressor`), forwarded to every candidate
            kernel (selection is unaffected; payloads are pinned
            bit-identical across modes).
        candidates: kernel names to choose among, in tie-break order
            (a size tie elects the earlier one).  Defaults to
            :data:`DEFAULT_CANDIDATES`.  A kernel is *eligible* only if
            its tagged payload meets the paper's 4:3 keep-compressed
            rule.
        resample_every: re-run full trials after this many memo hits on
            one kind, so a drifting kind re-elects its kernel
            deterministically.
        memo_max: bound on remembered kinds (FIFO eviction).
        result_memo_max: bound on the per-instance choice memo
            (content fingerprint -> chosen kernel), which makes
            re-seen page bytes cost one hash plus two dict probes
            instead of a kernel run.  Per-instance rather than
            process-wide because the selector's choice depends on this
            instance's history; the payload itself is the process-wide
            finished result.  FIFO eviction.
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
        #: content fingerprint -> index of the candidate this instance
        #: chose (its finished result may be the raw page); FIFO-bounded.
        self._results: "OrderedDict[bytes, int]" = OrderedDict()
        #: each candidate's share key; the candidates' together key the
        #: trial outcomes (None: a candidate opts out, nothing shared).
        self._keys = tuple(kernel.result_cache_key()
                           for kernel in self._kernels)
        self._trial_key = None if None in self._keys else self._keys
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
        # sharing would be incorrect.  What is shared is keyed by the
        # chosen kernel (_finished) and the candidate set (_run_trials).
        return None

    def _finished(self, index: int, data: bytes, fp: bytes,
                  result: Optional[CompressionResult] = None
                  ) -> CompressionResult:
        """What this selector returns for ``data`` with candidate
        ``index`` chosen: its payload behind the kernel's tag byte, or
        the raw page when that does not beat ``n`` bytes.

        Read from the process-wide finished results; on a miss it is
        built from ``result`` (the trial's own) or a fresh run of the
        kernel, so no counter depends on what the budget kept.
        """
        def finish() -> CompressionResult:
            n = len(data)
            out = (result if result is not None
                   else self._kernels[index].compress(data))
            if out.compressed_size + 1 >= n:
                return CompressionResult(bytes(data), n, stored_raw=True)
            tag = KERNEL_TAGS[self.candidate_names[index]]
            return CompressionResult(bytes([tag]) + out.payload, n)

        key = self._keys[index]
        return shared_finished(None if key is None else (key, fp), finish)

    def _run_trials(self, data: bytes, n: int, fp: bytes) -> Tuple[int, bool]:
        """Try every candidate; return the winner's index
        and whether no candidate met the threshold.

        The winner stores the page in the fewest bytes (counting the tag
        byte) while meeting the threshold; candidate order breaks ties
        toward the cheaper kernel.  With no eligible kernel the smallest
        result still wins — the caller's raw fallback and the 4:3
        accounting downstream handle the rest.  Only the winner's
        finished result is kept; the losers' payloads go with this frame.
        """
        best = None
        best_eligible = None
        for index, kernel in enumerate(self._kernels):
            result = kernel.compress(data)
            size = result.compressed_size
            if best is None or size < best[0]:
                best = (size, index, result)
            if self.threshold.keep_compressed(n, size + 1) and (
                best_eligible is None or size < best_eligible[0]
            ):
                best_eligible = (size, index, result)
        missed = best_eligible is None
        _, index, result = best if missed else best_eligible
        self._finished(index, data, fp, result)
        return index, missed

    def compress(self, data: bytes) -> CompressionResult:
        n = len(data)
        self.pages += 1
        if n == 0:
            return CompressionResult(b"", 0, stored_raw=True)
        fp = CompressionSampler.fingerprint(data)
        index = self._results.get(fp)
        if index is not None:
            # Re-seen bytes: replay this instance's choice — the hot
            # steady-state path, one hash plus two dict probes.
            self.result_hits += 1
            final = self._finished(index, data, fp)
            self._count(index, final)
            return final
        kind = page_kind(data)
        entry = self._memo.get(kind)
        if entry is not None and entry[1] < self.resample_every:
            entry[1] += 1
            self.memo_hits += 1
            index = entry[0]
            final = self._finished(index, data, fp)
            # A raw final is a kernel result that with its tag byte did
            # not beat the page, let alone the threshold.
            if final.stored_raw or not self.threshold.keep_compressed(
                n, final.compressed_size
            ):
                self.threshold_misses += 1
        else:
            self.trials += 1
            key = self._trial_key
            index, missed = shared_trial(
                None if key is None else (key, fp),
                lambda: self._run_trials(data, n, fp),
            )
            self.threshold_misses += missed
            self._memo[kind] = [index, 0]
            while len(self._memo) > self.memo_max:
                del self._memo[next(iter(self._memo))]
            final = self._finished(index, data, fp)
        self._count(index, final)
        self._results[fp] = index
        while len(self._results) > self.result_memo_max:
            self._results.popitem(last=False)
        return final

    def _count(self, index: int, final: CompressionResult) -> None:
        if final.stored_raw:
            self.raw_fallbacks += 1
        else:
            name = self.candidate_names[index]
            self.chosen[name] = self.chosen.get(name, 0) + 1

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
