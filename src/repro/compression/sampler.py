"""Memoized compression measurements for the simulator.

The simulator charges compression *time* from a bandwidth model but needs
real compressed *sizes* to reproduce the paper's per-application ratios.
A sweep performs millions of page compressions over page contents that
repeat, so this module memoizes ``(algorithm, content fingerprint) ->
compression result``: each memo keeps the kernel's own result, payload
included, whether or not the page passes the 4:3 rule.

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
machine per point over largely repeating content, are the beneficiaries:
with this cache switched off, ``benchmarks/e2e`` ``sim-warm`` read
``lat_tail_us`` 28% higher over four alternated pairs.  Decompression
is not cached: a tier demotion runs its source kernel's decoder on
every page it moves (the compiled LZ decoder takes about 10 µs a page).

The adaptive selector shares *finished* results instead
(:func:`shared_finished`): ``(kernel key, fingerprint) ->`` the tagged
result a store keeps, one payload per page, plus a record of each
trial's outcome (:func:`shared_trial`).  A trial's losing candidates
leave nothing behind, and a selector's own memo keeps only which kernel
it chose, so a page's stored bytes exist once in the process, by
identity with what the tier or ``VslotStore`` holds.  A 64-slot service
shard grew 10.4 MBytes over ``serve-bench --shards 1`` this way, against
20.1 while every candidate's payload was kept (2-CPU Linux host, Python
3.11).  Both process-wide result caches are bounded by the bytes they
hold (:class:`_ResultFifo`): 32 MBytes of kernel results, 16 of finished
ones.

The pageout paths hand real payload bytes to the compression cache
through :meth:`CompressionSampler.compress`;
:meth:`CompressionSampler.compressed_size` is the same lookup for call
sites that only need the stored *size*.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Callable, Optional, Tuple

from .base import CompressionResult, Compressor

_blake2b = hashlib.blake2b

#: What a process-wide cache entry costs beyond its payload: its key,
#: its node and the result's header.
_ENTRY_BYTES = 256


class _ResultFifo(OrderedDict):
    """``key -> CompressionResult``, FIFO, bounded by the bytes held.

    An entry is charged its payload plus :data:`_ENTRY_BYTES`, so
    neither 4-KByte rejected pages nor pages that compress to a few
    bytes can pile up past ``budget``; :meth:`keep` is the only way in.
    """

    def __init__(self, budget: int):
        super().__init__()
        self.budget = budget
        self.held = 0

    def keep(self, key, result: CompressionResult) -> CompressionResult:
        """Store ``result`` under ``key``, dropping the oldest entries
        until the cache fits its budget; returns ``result``."""
        old = self.pop(key, None)
        if old is not None:
            self.held -= _ENTRY_BYTES + len(old.payload)
        self[key] = result
        self.held += _ENTRY_BYTES + len(result.payload)
        while self.held > self.budget:
            self.held -= _ENTRY_BYTES + len(self.popitem(last=False)[1].payload)
        return result

    def clear(self) -> None:
        super().clear()
        self.held = 0


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
#:
#: Its budget holds what the largest in-process user fills: ``sweep
#: --experiment kernels --scale 0.05 --jobs 1`` peaks at 9,064 entries
#: and 26.3 MBytes (the ``benchmarks/e2e`` simulator workloads at 1,307
#: entries and 3.1 MBytes, ``sim-warm``).
_SHARED_RESULTS = _ResultFifo(32 * 1024 * 1024)

#: The adaptive selector's finished results: ``(kernel key, content
#: fingerprint) -> CompressionResult``, the tagged payload (or the raw
#: page) a selector returns for those bytes when it picks that kernel.
#: Pure in its key, so every selector in the process replays every
#: other's entries; a selector's own memo keeps only the kernel it chose.
_SHARED_FINISHED = _ResultFifo(16 * 1024 * 1024)

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
    _SHARED_RESULTS.clear()
    _SHARED_FINISHED.clear()
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
    if shared is not None and shared.original_size == len(data):
        return shared
    return _SHARED_RESULTS.keep(skey, compressor.compress(data))


def shared_finished(
    key: Optional[tuple], finish: Callable[[], CompressionResult]
) -> CompressionResult:
    """The finished result under ``key``: kept, or ``finish()`` now.

    ``finish`` runs only on a miss — first sight, or an entry the byte
    budget evicted — and what it returns is kept; a ``None`` key (a
    kernel that opts out of sharing) always finishes.  Nothing a caller
    counts may depend on which of the two happened.
    """
    if key is None:
        return finish()
    final = _SHARED_FINISHED.get(key)
    if final is None:
        final = _SHARED_FINISHED.keep(key, finish())
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
                 ) -> CompressionResult:
        """Full compression result, from the memo when this content has
        been measured before.

        A miss (never in exact mode, whose purpose is to run the real
        kernel every time) goes through :func:`shared_compress`, which
        changes nothing but the wall clock.  The shared entry is always
        addressed by the fingerprint of the *actual bytes* — never by a
        workload ``stable_key`` string, whose mapping to bytes is per-run
        and would leak one run's measurement into another's; when the
        memo key is a stable key and no digest was passed,
        :func:`shared_compress` hashes the page itself.
        """
        if self.exact:
            return self.compressor.compress(data)
        key = self._cache_key(data, stable_key, fingerprint)
        cached = self._payload_cache.get(key)
        if cached is not None and cached.original_size == len(data):
            self.hits += 1
            return cached
        self.misses += 1
        result = shared_compress(
            self.compressor, data, key if type(key) is bytes else fingerprint)
        self._payload_cache[key] = result
        while len(self._payload_cache) > self.max_entries:
            self._payload_cache.popitem(last=False)
        return result

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
