"""Memoized compression measurements for the simulator.

The simulator charges compression *time* from a bandwidth model but needs
real compressed *sizes* to reproduce the paper's per-application ratios.
Running a pure-Python LZRW1 on every one of the millions of page
compressions a sweep performs would be wasteful when page contents repeat,
so this module memoizes ``(algorithm, content fingerprint) -> compression
result``.

Two modes:

* ``exact`` — every request runs the real compressor (no memo).  Used by
  the validation tests that prove the memoized mode agrees with reality.
* ``memo`` (default) — results are cached by a fingerprint of the
  content bytes.  The cache is bounded; eviction is FIFO, which is safe
  because entries are pure functions of the content.

Independently of the per-instance memo, deterministic compression results
are shared *process-wide* through a content-addressed cache
(:data:`_SHARED_RESULTS`): a fresh sampler still counts its own first
sight of a page as a miss, but skips the kernel when any earlier run in
the process already compressed those exact bytes with an identically
configured algorithm.  Sweeps and benchmark reps, which rebuild the
machine per point over largely repeating content, are the beneficiaries.
The same holds in the other direction (:data:`_SHARED_DECODED`,
:func:`shared_decompress`): a payload is really decoded once per process,
which is what keeps tier demotion from re-running a decoder on the same
few payloads for every page it moves.

The adaptive selector shares *finished* results instead
(:func:`shared_finished`): ``(kernel key, fingerprint) ->`` the tagged
result a store keeps, one payload per page in a 16-MByte budget, plus a
record of each trial's outcome (:func:`shared_trial`).  A trial's
losing candidates leave nothing behind, and a selector's own memo keeps
only which kernel it chose, so a page's stored bytes exist once in the
process, by identity with what the tier or ``VslotStore`` holds.  A
64-slot service shard grew 10.4 MBytes over ``serve-bench --shards 1``
this way, against 20.1 while every candidate's payload was kept (2-CPU
Linux host, Python 3.11).

The pageout paths hand real payload bytes to the compression cache
through :meth:`CompressionSampler.compress`;
:meth:`CompressionSampler.compressed_size` is the same lookup for call
sites that only need the stored *size*.

A caller that reads only the 4:3 keep decision — an eviction, whose
rejected page is written raw — passes ``threshold``.  On a memo miss
the kernel's ``size_floor`` (a lower bound on its output; ``lzss`` has
one on its numpy path) is asked first, and a
page it proves cannot meet the threshold gets a :class:`ProvenRejected`:
``compressed_size`` is the page's, the payload is empty, and the kernel
does not run.  A page whose kernel result fails the threshold gets one
too, so no memo keeps a rejected payload.  It is memoized and shared
like any result, so a warm run replays it in one lookup, and the keep
decision, hit/miss counts and every virtual charge are what the
kernel's own result gives.  It never reaches a caller that
reads bytes: :func:`shared_compress` and a memo hit without
``threshold`` replace it with the kernel's real result (the hit still
counts as a hit), and so does a caller whose threshold is looser than
the one the floor was held to.  ``exact`` mode never takes the
shortcut.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Tuple

from .base import CompressionResult, Compressor

if TYPE_CHECKING:
    from .stats import CompressionThreshold

_blake2b = hashlib.blake2b


@dataclass(frozen=True)
class ProvenRejected(CompressionResult):
    """What a page known to fail the 4:3 rule — by the kernel's size
    floor, or by the kernel's own result — compresses to, as far as a
    keep decision can tell: its full size.

    Holds no payload (``ProvenRejected(b"", n, True, floor)``), so only
    a caller that reads nothing but the keep decision may see one
    (:meth:`CompressionSampler.compress` with a ``threshold`` it
    :meth:`settles`).  :func:`shared_compress` and any other memo hit
    replace it with the kernel's real result.
    """

    #: A lower bound on the kernel's output for the page, which the
    #: proof rests on: its size floor, or the output's own size.
    floor: int = 0

    @property
    def compressed_size(self) -> int:
        return self.original_size

    def settles(self, threshold: Optional["CompressionThreshold"]) -> bool:
        """Whether the floor alone rejects the page under ``threshold``
        (one looser than the proof's may keep the real result)."""
        return threshold is not None and not threshold.keep_compressed(
            self.original_size, self.floor)


#: Process-wide pure-function cache: ``(compressor key, content
#: fingerprint) -> CompressionResult``.  Compression is deterministic, so
#: a result computed by one sampler is valid for every other sampler
#: driving an identically configured compressor — sweep points and
#: benchmark reps build a fresh machine (and sampler) per run but touch
#: largely the same page contents, and without sharing each run re-pays
#: the full kernel cost for bytes the process has already compressed.
#:
#: Only *content-addressed* entries are shared (blake2b fingerprints —
#: never workload ``stable_key`` strings, which are not pure functions of
#: the bytes), so cache warmth can never change a simulation's results,
#: only how fast they are produced.  Per-sampler hit/miss counters are
#: driven exclusively by the per-instance memos and are unaffected.
_SHARED_RESULTS: "OrderedDict[tuple, CompressionResult]" = OrderedDict()
_SHARED_MAX_ENTRIES = 16384

#: The inverse, for :func:`shared_decompress`: ``(compressor key,
#: original size, payload) -> decoded bytes``.  Decompression is as pure
#: as compression, and the key is the payload itself — never the page
#: it belongs to, whose current contents a ``stable_key`` payload need
#: not match — so a hit is exactly what the kernel would return.  FIFO,
#: bounded by the decoded bytes it holds (4,096 4-KByte pages; the keys
#: are payloads the tier caches and sampler memos hold anyway).
_SHARED_DECODED: "OrderedDict[tuple, bytes]" = OrderedDict()
_SHARED_DECODED_MAX_BYTES = 16 * 1024 * 1024
_shared_decoded_bytes = 0


#: The adaptive selector's finished results: ``(kernel key, content
#: fingerprint) -> CompressionResult``, the tagged payload (or the raw
#: page) a selector returns for those bytes when it picks that kernel.
#: Pure in its key, so every selector in the process replays every
#: other's entries; a selector's own memo keeps only the kernel it chose.
#: FIFO, bounded by the bytes it holds: an entry is charged its payload
#: plus :data:`_FINISHED_ENTRY_BYTES` (its key, its node, the result's
#: header), so pages that compress to a few bytes cannot pile up.
_SHARED_FINISHED: "OrderedDict[tuple, CompressionResult]" = OrderedDict()
_SHARED_FINISHED_MAX_BYTES = 16 * 1024 * 1024
_FINISHED_ENTRY_BYTES = 256
_shared_finished_bytes = 0

#: The selector's trial outcomes: ``(candidate keys, content
#: fingerprint) -> (winning candidate's index, threshold missed)``.  A
#: second selector that trials the same page reads the outcome here and
#: its result from :data:`_SHARED_FINISHED`, and runs no candidate.
#: Entries are a fixed size, so the cap counts them.
_TRIAL_OUTCOMES: "OrderedDict[tuple, Tuple[int, bool]]" = OrderedDict()
_TRIAL_OUTCOMES_MAX_ENTRIES = 16384


def clear_shared_results() -> None:
    """Drop every process-wide result cache (test isolation hook; what
    makes a benchmark's cold run cold)."""
    global _shared_decoded_bytes, _shared_finished_bytes
    _SHARED_RESULTS.clear()
    _SHARED_DECODED.clear()
    _shared_decoded_bytes = 0
    _SHARED_FINISHED.clear()
    _shared_finished_bytes = 0
    _TRIAL_OUTCOMES.clear()


def shared_results_size() -> int:
    """Entries currently in the process-wide result cache."""
    return len(_SHARED_RESULTS)


def shared_finished_size() -> int:
    """Entries currently in the selector's finished results."""
    return len(_SHARED_FINISHED)


def shared_compress(
    compressor: Compressor,
    data: bytes,
    fingerprint: Optional[bytes] = None,
) -> CompressionResult:
    """Compress through the process-wide content-addressed cache.

    What a sampler's memo miss runs, and what a service slot's store
    runs on a PUT.  Kernels that opt out of sharing
    (``result_cache_key() is None``, the default for algorithms that
    don't declare a config identity, and the adaptive selector, which
    shares through :func:`shared_finished` instead) are simply invoked.
    """
    ckey = compressor.result_cache_key()
    if ckey is None:
        return compressor.compress(data)
    fp = fingerprint if fingerprint is not None else _blake2b(
        data, digest_size=16
    ).digest()
    skey = (ckey, fp)
    shared = _SHARED_RESULTS.get(skey)
    if (shared is not None and shared.original_size == len(data)
            and type(shared) is not ProvenRejected):
        return shared
    return _share(skey, compressor.compress(data))


def _share(skey: tuple, result: CompressionResult) -> CompressionResult:
    _SHARED_RESULTS[skey] = result
    while len(_SHARED_RESULTS) > _SHARED_MAX_ENTRIES:
        _SHARED_RESULTS.popitem(last=False)
    return result


def shared_decompress(
    compressor: Compressor, result: CompressionResult
) -> bytes:
    """Decompress through the process-wide content-addressed cache.

    The inverse of :func:`shared_compress`, for callers that recover
    bytes the process has very likely decoded before — tier demotion,
    which re-decodes the same few payloads run after run.  Every
    distinct payload is decoded (and checked: a corrupt one raises
    :class:`~repro.compression.base.CorruptDataError` and is never
    stored) once; only a byte-equal payload of the same declared size
    under an identically configured kernel is a hit.  Kernels that opt
    out of sharing, raw-stored results (nothing to decode) and payloads
    that are not ``bytes`` (not hashable, or not immutable) are simply
    invoked.
    """
    global _shared_decoded_bytes
    ckey = compressor.result_cache_key()
    payload = result.payload
    if ckey is None or result.stored_raw or type(payload) is not bytes:
        return compressor.decompress(result)
    skey = (ckey, result.original_size, payload)
    data = _SHARED_DECODED.get(skey)
    if data is None:
        data = compressor.decompress(result)
        _SHARED_DECODED[skey] = data
        _shared_decoded_bytes += len(data)
        while _shared_decoded_bytes > _SHARED_DECODED_MAX_BYTES:
            _shared_decoded_bytes -= len(
                _SHARED_DECODED.popitem(last=False)[1]
            )
    return data


def shared_finished(
    key: Optional[tuple], finish: Callable[[], CompressionResult]
) -> CompressionResult:
    """The finished result under ``key``: kept, or ``finish()`` now.

    ``finish`` runs only on a miss — first sight, or an entry the byte
    budget evicted — and what it returns is kept; a ``None`` key (a
    kernel that opts out of sharing) always finishes.  Nothing a caller
    counts may depend on which of the two happened.
    """
    global _shared_finished_bytes
    if key is None:
        return finish()
    final = _SHARED_FINISHED.get(key)
    if final is None:
        final = _SHARED_FINISHED[key] = finish()
        _shared_finished_bytes += len(final.payload) + _FINISHED_ENTRY_BYTES
        while _shared_finished_bytes > _SHARED_FINISHED_MAX_BYTES:
            _shared_finished_bytes -= _FINISHED_ENTRY_BYTES + len(
                _SHARED_FINISHED.popitem(last=False)[1].payload
            )
    return final


def shared_trial(
    key: Optional[tuple], run: Callable[[], Tuple[int, bool]]
) -> Tuple[int, bool]:
    """The recorded trial outcome under ``key``, or ``run()`` recorded
    now (a ``None`` key always runs)."""
    if key is None:
        return run()
    outcome = _TRIAL_OUTCOMES.get(key)
    if outcome is None:
        outcome = _TRIAL_OUTCOMES[key] = run()
        if len(_TRIAL_OUTCOMES) > _TRIAL_OUTCOMES_MAX_ENTRIES:
            _TRIAL_OUTCOMES.popitem(last=False)
    return outcome


class CompressionSampler:
    """Caches compression outcomes per unique page content.

    Args:
        compressor: the algorithm to measure.
        exact: disable memoization entirely.
        max_entries: memo capacity; oldest entries are dropped first.
    """

    def __init__(
        self,
        compressor: Compressor,
        exact: bool = False,
        max_entries: int = 65536,
    ):
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.compressor = compressor
        self.exact = exact
        self.max_entries = max_entries
        self._payload_cache: "OrderedDict[object, CompressionResult]" = (
            OrderedDict()
        )
        self.hits = 0
        self.misses = 0

    @staticmethod
    def fingerprint(data: bytes) -> bytes:
        """Stable content fingerprint.

        A keyed-at-zero BLAKE2b digest: stable across interpreter runs
        (builtin ``hash`` is randomized by ``PYTHONHASHSEED``) and wide
        enough (128 bits) that collisions are out of reach even at the
        memo's full 65536-entry capacity, where a 32-bit checksum such as
        ``zlib.crc32`` would already be odds-on to alias two pages.
        """
        return _blake2b(data, digest_size=16).digest()

    def _cache_key(self, data: bytes, stable_key: Optional[str],
                   fingerprint: Optional[bytes] = None):
        if stable_key is not None:
            # A workload vouched that its in-place updates don't change
            # the page's compressibility class; one measurement stands in
            # for all versions of the page.
            return stable_key
        if fingerprint is not None:
            # Caller precomputed (or cached) the digest of ``data`` —
            # e.g. PageContent.fingerprint(), which is byte-identical to
            # what we would compute here.
            return fingerprint
        return _blake2b(data, digest_size=16).digest()

    def compressed_size(self, data: bytes,
                        stable_key: Optional[str] = None,
                        fingerprint: Optional[bytes] = None) -> int:
        """Size in bytes ``data`` occupies after compression: what
        :meth:`compress` returns, measured (``exact`` mode counts the
        kernel run it forces as a miss)."""
        if self.exact:
            self.misses += 1
        return self.compress(data, stable_key, fingerprint).compressed_size

    def compress(self, data: bytes,
                 stable_key: Optional[str] = None,
                 fingerprint: Optional[bytes] = None,
                 threshold: Optional["CompressionThreshold"] = None,
                 ) -> CompressionResult:
        """Full compression result, from the memo when this content has
        been measured before.

        A caller that reads only whether the result passes ``threshold``
        says so: a page the kernel's size floor proves fails it then
        gets a :class:`ProvenRejected` and the kernel does not run, and
        a page the kernel's result fails gets one in place of the
        result.
        Otherwise the result is always the kernel's own: a memo hit on
        a stand-in that does not settle ``threshold`` (or has none to
        settle) is replaced, and still counts as a hit.
        """
        if self.exact:
            return self.compressor.compress(data)
        key = self._cache_key(data, stable_key, fingerprint)
        cached = self._payload_cache.get(key)
        if cached is not None and cached.original_size == len(data):
            self.hits += 1
            if type(cached) is ProvenRejected and not cached.settles(
                    threshold):
                cached = self._payload_cache[key] = self._compute(
                    key, data, fingerprint, threshold)
            return cached
        self.misses += 1
        result = self._compute(key, data, fingerprint, threshold)
        self._payload_cache[key] = result
        while len(self._payload_cache) > self.max_entries:
            self._payload_cache.popitem(last=False)
        return result

    def _compute(self, key, data: bytes,
                 fingerprint: Optional[bytes] = None,
                 threshold: Optional["CompressionThreshold"] = None,
                 ) -> CompressionResult:
        """Run the kernel — or replay a shared, content-addressed result.

        Reached only on a per-instance memo miss (never in exact mode,
        whose purpose is to run the real kernel every time); the caller
        has already done the hit/miss accounting, so replaying through
        :func:`shared_compress` changes nothing but the wall clock.

        The shared entry is always addressed by the fingerprint of the
        *actual bytes* — never by a workload ``stable_key`` string, whose
        mapping to bytes is per-run and would leak one run's measurement
        into another's.  When the memo key is a stable key and no digest
        was passed, :func:`shared_compress` hashes the page itself: a
        memo miss is about to pay for a full kernel run, so that is
        noise.

        With a ``threshold``, a shared entry answers (a
        :class:`ProvenRejected` only if it settles that threshold), and
        otherwise the kernel's size floor, if it has one, is asked
        first: a page it proves fails the threshold gets a
        :class:`ProvenRejected`, shared under the same key.  So does a
        page whose kernel result fails it, with that result's size as
        the floor: the caller reads only the keep decision, and a
        rejected payload kept in the memos would be memory no one reads.
        """
        fp = key if type(key) is bytes else fingerprint
        floor = self.compressor.size_floor
        ckey = self.compressor.result_cache_key()
        if threshold is None or ckey is None:
            return shared_compress(self.compressor, data, fp)
        n = len(data)
        if fp is None:
            fp = _blake2b(data, digest_size=16).digest()
        skey = (ckey, fp)
        shared = _SHARED_RESULTS.get(skey)
        if shared is not None and shared.original_size == n and (
                type(shared) is not ProvenRejected
                or shared.settles(threshold)):
            return shared
        lower = floor(data) if floor is not None else 0
        if threshold.keep_compressed(n, lower):
            result = self.compressor.compress(data)
            if threshold.keep_compressed(n, result.compressed_size):
                return _share(skey, result)
            lower = result.compressed_size
        return _share(skey, ProvenRejected(b"", n, True, lower))

    @property
    def hit_rate(self) -> float:
        """Fraction of requests served from the memo."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def clear(self) -> None:
        """Drop all cached measurements."""
        self._payload_cache.clear()
        self.hits = 0
        self.misses = 0
