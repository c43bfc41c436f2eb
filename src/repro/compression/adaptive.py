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
   re-trial) runs *trial compressions* of every candidate kernel that
   can beat raw (:func:`raw_proofs` names the ones that provably
   cannot) and keeps the kernel that stores the page in the fewest
   bytes while meeting the paper's 4:3 threshold, breaking ties toward
   the CPU-cheaper kernel.  A page no candidate can compress goes raw
   untried.  Only the winner's finished result is kept, process-wide
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

import math
import struct
from array import array
from collections import Counter, OrderedDict
from itertools import compress
from operator import gt
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .base import (
    CompressionResult,
    Compressor,
    CorruptDataError,
    create,
    register,
)
from .lzrw1 import lz_size_floor
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

#: Default candidate kernels, CPU-cheapest first (the tie-break order).
#: ``null`` is omitted (it never compresses) and ``adaptive`` must not
#: nest.  ``lzrw1`` is omitted too: ``lzss`` writes lzrw1's stream
#: format with a deeper search and never stores a page in more bytes,
#: so lzrw1 could only win a tie.  Its tag and decoder stay (stored payloads may
#: carry it), and ``candidates=`` may still name it.
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


#: Pages below this size always get the full trial: the varint-delta
#: and bdi bounds in :func:`raw_proofs` need at least 128 whole words.
_PROOF_MIN_BYTES = 512

#: ``c * log2(c)`` in units of ``2**-20`` for every byte count ``c`` up
#: to the largest page seen (8 bytes an entry: 32 KBytes at 4 KBytes).
#: Integers, so the entropy screen sums exactly and decides the same
#: whichever path built the histogram.
_XLOGX = array("q", [0])
_XLOGX_UNIT = 1 << 20

#: The entropy screen: a page under 7.5 bits a byte gets the full trial
#: without the proofs (every page any kernel compressed in the corpus
#: and the ``kv-mixed`` trials sat below it; every page all of them
#: stored raw, above 7.9).  Soundness does not rest on it.
_SCREEN_HALF_BITS = 15


def raw_proofs(data: bytes, np=None) -> FrozenSet[str]:
    """The kernels that provably store ``data`` raw, without running them.

    Each rule is a lower bound on a kernel's output from counts the page
    shows, and a kernel whose output cannot get under ``n`` bytes stores
    the page raw (:meth:`Compressor.compress`), which is exactly what a
    trial of it would return.  For ``n`` bytes, ``W = n // 4`` words:

    * ``lzss``/``lzrw1``: :func:`~repro.compression.lzrw1.lz_size_floor`
      (copies save at most one byte per position whose trigram occurred
      earlier, and every 16 items cost a 2-byte control word) reaches
      ``n``.
    * ``rle``: a run of ``L`` bytes saves ``L - 2`` and holds ``L - 1``
      of the ``P`` adjacent equal byte pairs; the literals left (at least
      ``n - 2P``) need a header byte per 128.
    * ``wk``/``cpack``: a miss costs 34 bits, anything else at least 2,
      and a word that is not a miss shares its high 16 bits with an
      earlier word, or is the first with high half zero.
    * ``fpc``: a miss costs 35 bits; every other pattern has two bytes
      from {0x00, 0xFF} or three equal adjacent pairs in its word.
    * ``varint-delta``: a word costs 4 bytes or more except as the
      first word (under ``2**21``) or a gap (under ``2**21``) of an
      ascending run of 4 or more words, and then saves at most 3; every
      chunk costs 2 header bytes, 3 when one chunk holds the page.
    * ``bdi``: a line that any encoding but raw fits has its eight
      top bytes (offsets 7, 15, ..., 63) in at most two values, and
      each line costs a header byte.

    Pages under :data:`_PROOF_MIN_BYTES` and pages the entropy screen
    passes over get the empty set.  ``np`` (numpy, or ``None`` for the
    scalar path) only builds the byte histogram and counts the distinct
    trigrams, so both paths return the same set.
    """
    n = len(data)
    if n < _PROOF_MIN_BYTES:
        return frozenset()
    if np is not None:
        octets = np.frombuffer(data, np.uint8)
        counts = np.bincount(octets, minlength=256).tolist()
    else:
        counts = Counter(data).values()
    table = _XLOGX
    for c in range(len(table), n + 1):
        table.append(round(c * math.log2(c) * _XLOGX_UNIT))
    entropy = table[n] - sum([table[c] for c in counts])   # n * bits
    if 2 * entropy < _SCREEN_HALF_BITS * n * _XLOGX_UNIT:
        return frozenset()

    proven = []
    words = n // 4
    # P: adjacent equal byte pairs, as zero bytes of the shifted XOR.
    pairs = (int.from_bytes(data[1:], "little")
             ^ int.from_bytes(data[:-1], "little")).to_bytes(
                 n - 1, "little").count(0)
    if 130 * pairs <= n:
        proven.append("rle")
    extremes = data.count(0) + data.count(0xFF)
    if 35 * (extremes // 2 + pairs // 3) <= 3 * words:
        proven.append("fpc")
    # The high half of every little-endian word: read in native order
    # it may come out byte-swapped, which leaves the count of distinct
    # values as it is.
    highs = set(memoryview(data)[:4 * words].cast("H")[1::2])
    if 16 * (words - len(highs) + 1) <= words:
        proven += ("wk", "cpack")
    values = struct.unpack_from(f"<{words}I", data)
    small = chunks = start = 0
    raw_chunk = False
    descents = list(compress(range(1, words), map(gt, values, values[1:])))
    for end in descents + [words]:
        if end - start >= 4:    # delta.py's ascending run
            chunks += 1
            raw_chunk = False
            small += values[start] < 1 << 21
            for i in range(start + 1, end):
                small += values[i] - values[i - 1] < 1 << 21
        elif not raw_chunk:
            chunks += 1
            raw_chunk = True
        start = end
    if 3 * small <= 2 * chunks + (chunks == 1):
        proven.append("varint-delta")
    lines = n // 64
    loose = sum(1 for top in range(7, 64 * lines, 64)
                if len(set(data[top:top + 57:8])) <= 2)
    if 64 * loose <= lines + 1:
        proven.append("bdi")
    if lz_size_floor(data, np) >= n:
        proven += ("lzrw1", "lzss")
    return frozenset(proven)


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
        from . import vectorized    # loaded by Compressor.__init__

        #: numpy for :func:`raw_proofs`'s histogram and distinct counts.
        self._np = vectorized._np if self._use_fast else None
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
        """Try every candidate that can win; return the winner's index
        and whether no candidate met the threshold.

        The winner stores the page in the fewest bytes (counting the tag
        byte) while meeting the threshold; candidate order breaks ties
        toward the cheaper kernel.  With no eligible kernel the smallest
        result still wins — the caller's raw fallback and the 4:3
        accounting downstream handle the rest.  A candidate
        :func:`raw_proofs` names is not run: its result is the raw page
        it would have returned.  Only the winner's finished result is
        kept; the losers' payloads go with this frame.
        """
        proven = raw_proofs(data, self._np)
        raw = CompressionResult(data, n, stored_raw=True)
        best = None
        best_eligible = None
        for index, kernel in enumerate(self._kernels):
            if self.candidate_names[index] in proven:
                result = raw
            else:
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
