"""Crash-consistent log-structured backing store for compressed pages.

The fragment store (:mod:`repro.storage.fragstore`) implements the
paper's Section 4.3 design: batched writes into a compressed-swap file,
with an in-memory location map that evaporates on a crash.  This module
goes where ROADMAP's open item points — a Rosenblum/Ousterhout-style
log-structured store in which *every* write, including the cleaner's,
is a pure sequential append, and which has the crash-consistency story
the paper never needed:

* fixed-size **segments**; the head segment absorbs appends, sealed
  segments are immutable until cleaned;
* every record carries a **header** with a CRC32 over the header, a
  CRC32 over the payload, a monotonic **record sequence number**, and
  the sequence number of its containing segment (so a segment's
  previous life can never masquerade as current log contents);
* an **imap** — page → (segment, offset) — entirely reconstructible
  from the log;
* a dual-slot **checkpoint region** (slot = seq % 2, so a torn
  checkpoint write can never destroy the newest valid checkpoint);
* a utilization-threshold **segment cleaner** that copies live records
  forward in ``batch_bytes`` sequential appends and frees the victim;
* **recovery replay**: pick the newest valid checkpoint, scan forward
  through every segment opened since, CRC-verify each record, truncate
  at the first torn record, and rebuild the imap, the live-byte
  accounting and the free list.

Determinism contract under crash injection: a kill point fires *before*
the in-flight write is charged, leaves a torn prefix of it on the
medium, discards all volatile state, recovers, and then the interrupted
operation re-executes from the recovered state.  Because recovery is
exact and every structure the store consults (free-list order, victim
selection, sequence numbers, checkpoint cadence) is a pure function of
durable state, the completed run is bit-identical to an uninterrupted
one — which is what lets CI pin ``recovered digest == reference
digest`` for the whole kill-point grid.  Recovery work is accounted in
:class:`RecoveryStats`, deliberately *outside* ``counters.snapshot()``
(it models reboot-time work outside the measured run).
"""

from __future__ import annotations

import json
import struct
import zlib
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from ..counters import Counters
from ..faults.errors import MissingFragmentError
from ..mem.page import PageId
from .backing import verify_payload
from .device import BackingDevice

#: Segment header: magic, segment sequence number, CRC32 of the two.
_SEG_HEADER = struct.Struct("<4sQI")
_SEG_MAGIC = b"LSEG"

#: Record header: magic, kind, pad, record seq, containing-segment seq,
#: page (segment, number), payload length, payload CRC32, header CRC32.
_REC_HEADER = struct.Struct("<2sBBQQiiIII")
_REC_MAGIC = b"LR"

_KIND_DATA = 0
_KIND_TOMBSTONE = 1
_KIND_DROPPED = 2  # staged then superseded before it ever hit the log
_KIND_FREESEG = 3  # segment-free: a clean's durable commit record

#: Checkpoint slot header: magic, checkpoint seq, blob length, blob CRC.
_CP_HEADER = struct.Struct("<4sQII")
_CP_MAGIC = b"LCKP"

#: Kill-point site names (also the FaultPlan ``lfs`` section's sites).
KILL_SITES = ("append", "clean", "checkpoint")


class _SimulatedCrash(Exception):
    """Internal: a kill point fired; unwind to the public-op wrapper.

    ``owe_checkpoint`` is True when the interrupted write was a
    checkpoint: every durable unit before it completed, so the redo
    must write only the checkpoint itself.  ``owe_clean`` names a
    victim whose segment-free record was already durable when the
    crash fired: recovery has deallocated it, so the redo owes only
    the clean's completion accounting (the victim read charge and
    counters), not another cleaning pass over it.
    """

    def __init__(self, site: str, owe_checkpoint: bool = False,
                 owe_clean: Optional[int] = None):
        super().__init__(site)
        self.site = site
        self.owe_checkpoint = owe_checkpoint
        self.owe_clean = owe_clean


@dataclass(frozen=True)
class LogStoreConfig:
    """Geometry and policy of the log-structured store.

    Args:
        segment_bytes: fixed segment size; also the cleaner's batched
            sequential write-out unit (the paper's 32 KBytes).
        total_segments: device capacity in segments.
        block_bytes: read-transfer alignment (a fault reads whole
            blocks, exactly as the fragment store models).
        reserve_segments: cleaning starts when the free list shrinks to
            this many segments, keeping headroom for the cleaner's own
            appends.
        gc_threshold: sealed-segment garbage fraction beyond which
            :meth:`LogStructuredStore.maybe_collect` cleans.
        min_sealed_for_gc: don't threshold-clean while fewer sealed
            segments exist (low-space cleaning still runs).
        checkpoint_every: write a periodic checkpoint after this many
            segments have been opened since the last one.
        sync_appends: flush after every put/free (durable-on-ack); the
            crash-injection harness requires it so an acknowledged
            operation is exactly a durable one.
        kill: deterministic kill point, ``"site:count"`` or
            ``"site:count:torn_fraction"`` — crash at the ``count``-th
            consult of ``site`` (one-shot), leaving ``torn_fraction``
            of the in-flight write on the medium.  Implies
            ``sync_appends``.
        kill_torn_fraction: default torn fraction for ``kill`` specs
            that omit one.
    """

    segment_bytes: int = 32768
    total_segments: int = 2048
    block_bytes: int = 4096
    reserve_segments: int = 4
    gc_threshold: float = 0.5
    min_sealed_for_gc: int = 8
    checkpoint_every: int = 8
    sync_appends: bool = False
    kill: Optional[str] = None
    kill_torn_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.segment_bytes < 4096:
            raise ValueError(
                f"segment_bytes must be >= 4096: {self.segment_bytes}"
            )
        if self.total_segments < 4:
            raise ValueError(
                f"total_segments must be >= 4: {self.total_segments}"
            )
        if self.block_bytes <= 0 or self.segment_bytes % self.block_bytes:
            raise ValueError(
                f"block_bytes {self.block_bytes} must divide segment_bytes "
                f"{self.segment_bytes}"
            )
        if self.reserve_segments < 1:
            raise ValueError("reserve_segments must be >= 1")
        if not 0.0 < self.gc_threshold <= 1.0:
            raise ValueError(f"gc_threshold out of range: {self.gc_threshold}")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if not 0.0 <= self.kill_torn_fraction <= 1.0:
            raise ValueError(
                f"kill_torn_fraction out of range: {self.kill_torn_fraction}"
            )
        if self.kill is not None:
            parse_kill_spec(self.kill)  # validates

    @property
    def segment_capacity(self) -> int:
        """Record bytes one segment can hold (header excluded)."""
        return self.segment_bytes - _SEG_HEADER.size


def parse_kill_spec(spec: str) -> Tuple[str, int, Optional[float]]:
    """``"site:count[:frac]"`` → (site, count, frac or None)."""
    parts = spec.split(":")
    if len(parts) not in (2, 3):
        raise ValueError(
            f"kill spec must be site:count[:torn_fraction]: {spec!r}"
        )
    site = parts[0]
    if site not in KILL_SITES:
        raise ValueError(
            f"unknown kill site {site!r}; known: {', '.join(KILL_SITES)}"
        )
    try:
        count = int(parts[1])
    except ValueError:
        raise ValueError(f"kill count must be an integer: {parts[1]!r}")
    if count < 1:
        raise ValueError(f"kill count must be >= 1: {count}")
    frac: Optional[float] = None
    if len(parts) == 3:
        frac = float(parts[2])
        if not 0.0 <= frac <= 1.0:
            raise ValueError(f"kill torn fraction out of range: {frac}")
    return site, count, frac


class LogLocation(NamedTuple):
    """Where a page's current record lives.

    ``segment == -1`` means the record is still staged in the pending
    buffer; ``offset`` is then its index in the staging queue.
    """

    segment: int
    offset: int          # record (header) offset within the segment
    nbytes: int          # payload length
    crc32: int           # payload checksum, verified on every read
    seq: int             # record sequence number


def _cp_row(page: PageId, loc: LogLocation) -> str:
    """One durable imap entry as the checkpoint's canonical JSON row."""
    return "[%d,%d,%d,%d,%d,%d,%d]" % (page + loc)


@dataclass
class LogStoreCounters(Counters):
    """Traffic and space accounting (part of the RunResult digest)."""

    pages_put: int = 0
    pages_got: int = 0
    tombstones: int = 0
    batch_flushes: int = 0
    append_writes: int = 0        # sequential device writes (chunks)
    appended_bytes: int = 0
    segments_opened: int = 0
    segments_cleaned: int = 0
    cleaner_reads: int = 0
    cleaner_copied_bytes: int = 0
    clean_runs: int = 0
    checkpoints_written: int = 0
    garbage_bytes_created: int = 0


@dataclass
class RecoveryStats(Counters):
    """Crash/recovery bookkeeping, *outside* the digest-pinned counters.

    Recovery models reboot-time work outside the measured run, so a
    recovered run's ``RunResult`` digest can equal the uninterrupted
    reference's — these numbers are asserted separately by the tests.
    """

    recoveries: int = 0
    replayed_records: int = 0
    torn_records: int = 0
    scanned_segments: int = 0
    scanned_bytes: int = 0
    invalid_checkpoint_slots: int = 0


class _PendingEntry:
    """One staged (not yet appended) record.

    ``garbage`` is the size of the durable record this entry displaces
    (supersedes or tombstones); it is *counted* only when this entry
    commits to the log, so a crash-and-redo between staging and append
    can never double-count the displaced bytes.  ``crc32`` (of the
    payload) and ``size`` (of the whole record) are computed here, once.
    """

    __slots__ = ("kind", "page_id", "payload", "seq", "cleaner",
                 "garbage", "crc32", "size")

    def __init__(self, kind: int, page_id: PageId, payload: bytes,
                 seq: int, cleaner: bool = False, garbage: int = 0):
        self.kind = kind
        self.page_id = page_id
        self.payload = payload
        self.seq = seq
        self.cleaner = cleaner
        self.garbage = garbage
        self.crc32 = zlib.crc32(payload)
        self.size = _REC_HEADER.size + len(payload)


class LogStructuredStore:
    """Append-only segmented backing store with crash recovery.

    A :class:`~repro.storage.backing.BackingStore`, as
    :class:`~repro.storage.fragstore.FragmentStore` is, so it slots in
    under the tier chain and both VM architectures unchanged.

    Args:
        device: backing device charged for every transfer.  Appends are
            sequential; reads and checkpoint writes are random.
        config: geometry and policy knobs.
        batch_bytes: staged bytes that trigger a flush (the paper's
            32-KByte batched write-out), and the cleaner's write-out
            batch size.
        resilience: optional fault-layer counters (CRC checks etc.).
        injector: optional :class:`~repro.faults.injectors.FaultInjector`
            providing ``corrupt_fragment``, ``lfs_crash`` and
            ``lfs_checkpoint_lost`` hooks.
    """

    def __init__(
        self,
        device: BackingDevice,
        config: Optional[LogStoreConfig] = None,
        batch_bytes: int = 32768,
        resilience=None,
        injector=None,
    ):
        self.device = device
        self.config = config or LogStoreConfig()
        if batch_bytes < _REC_HEADER.size + 1:
            raise ValueError("batch must hold at least one record")
        self.batch_bytes = batch_bytes
        self.resilience = resilience
        self.injector = injector
        self.counters = LogStoreCounters()
        self.recovery = RecoveryStats()
        self.gc_generation = 0

        chaos = False
        if injector is not None:
            plan_lfs = getattr(injector.plan, "lfs", None)
            chaos = plan_lfs is not None and plan_lfs.crash_rate > 0
        self._kill: Optional[List] = None
        if self.config.kill is not None:
            site, count, frac = parse_kill_spec(self.config.kill)
            if frac is None:
                frac = self.config.kill_torn_fraction
            self._kill = [site, count, frac]
        #: Crash injection requires durable-on-ack appends: a lost
        #: staging buffer would desynchronize the VM from the store.
        self.sync_appends = (
            self.config.sync_appends or self._kill is not None or chaos
        )

        #: The durable medium: segment bytes plus two checkpoint slots.
        #: Recovery reads only these.
        self._disk: Dict[int, bytearray] = {}
        self._cp_slots: List[Optional[bytes]] = [None, None]

        #: Payloads damaged in the medium itself (sticky corruption);
        #: survives crashes — damage is durable.  Injector-only.
        self._sticky_corrupt: Dict[PageId, bytes] = {}

        self._init_volatile()
        # "mkfs": an initial empty checkpoint so recovery always has a
        # valid starting point.  Uncharged — formatting predates the run.
        self._cp_slots[0] = self._pack_checkpoint(0)
        self._cp_next_seq = 1

        #: Virtual seconds accumulated by the current public operation;
        #: survives a simulated crash so pre-crash durable chunks are
        #: charged exactly once.
        self._op_seconds = 0.0

    # ------------------------------------------------------------------
    # Volatile state
    # ------------------------------------------------------------------

    def _init_volatile(self) -> None:
        self._imap: Dict[PageId, LogLocation] = {}
        # The checkpoint image's imap section as the image needs it: the
        # pages with a durable record in image (sorted) order and,
        # parallel to them, each one's rendered row — written where the
        # record commits.  A discard only notes its page in ``_cp_dead``
        # (O(1) on the put path); a recommit of the page replaces the row
        # in place and the next image removes whatever is still noted.
        self._cp_keys: List[PageId] = []
        self._cp_rows: List[str] = []
        self._cp_dead: Set[PageId] = set()
        # The image's row of each allocated segment, dropped wherever
        # the segment's entry in the three tables below changes.
        self._cp_allocated: Dict[int, str] = {}
        self._allocated: Dict[int, int] = {}     # segment -> segment seq
        self._written: Dict[int, int] = {}       # segment -> record bytes
        # segment -> segment-free-record bytes.  Control records are
        # dead on arrival but must not make their segment a cleaning
        # victim, or every clean would breed the next one.
        self._control: Dict[int, int] = {}
        self._in_clean = False
        self._sealed: set = set()
        self._free: List[int] = list(range(self.config.total_segments))
        self._head_seg: Optional[int] = None
        self._head_off = 0
        self._live: Dict[int, int] = {}          # segment -> live bytes
        self._sealed_live = 0
        self._next_rec_seq = 0
        self._next_seg_seq = 0
        self._opens_since_cp = 0
        # Per-segment read index for the colocated-prefetch scan:
        # sorted record offsets plus offset -> page.
        self._seg_offsets: Dict[int, List[int]] = {}
        self._seg_page_at: Dict[int, Dict[int, PageId]] = {}
        self._pending: List[_PendingEntry] = []
        self._pending_head = 0
        self._pending_bytes = 0

    # ------------------------------------------------------------------
    # Space accounting
    # ------------------------------------------------------------------

    @property
    def live_pages(self) -> int:
        """Pages with a current stored (or staged) copy."""
        return len(self._imap)

    @property
    def live_bytes(self) -> int:
        """Live record bytes across all segments."""
        return sum(self._live.values())

    @property
    def free_segments(self) -> int:
        return len(self._free)

    @property
    def garbage_fraction(self) -> float:
        """Dead fraction of the sealed segments' capacity."""
        capacity = len(self._sealed) * self.config.segment_capacity
        if capacity == 0:
            return 0.0
        return 1.0 - self._sealed_live / capacity

    def contains(self, page_id: PageId) -> bool:
        return page_id in self._imap

    def location(self, page_id: PageId) -> Optional[LogLocation]:
        """Current location of a page, if any (diagnostics / tests)."""
        return self._imap.get(page_id)

    def acknowledged_pages(self) -> Dict[PageId, int]:
        """page -> payload CRC32 for every *durable* current record.

        The crash property tests assert these exact pages (and payload
        checksums) survive :meth:`crash_and_recover`.
        """
        return {
            page: loc.crc32
            for page, loc in self._imap.items()
            if loc.segment >= 0
        }

    # ------------------------------------------------------------------
    # Kill points and crash machinery
    # ------------------------------------------------------------------

    def _consult_kill(self, site: str) -> Optional[float]:
        """Torn fraction if a crash fires at this site, else None."""
        kill = self._kill
        if kill is not None and kill[0] == site:
            kill[1] -= 1
            if kill[1] == 0:
                self._kill = None  # one-shot
                return kill[2]
        injector = self.injector
        if injector is not None:
            fired = injector.lfs_crash(site)
            if fired is not None:
                return fired
        return None

    def crash_and_recover(self) -> None:
        """Test API: simulate power loss now, then recover from disk."""
        self._crash_and_recover()

    def _crash_and_recover(self) -> None:
        """Discard all volatile state and rebuild it from the medium."""
        self.recovery.recoveries += 1
        if self.resilience is not None and hasattr(
            self.resilience, "lfs_recoveries"
        ):
            self.resilience.lfs_recoveries += 1
        self._init_volatile()
        self._recover()

    # -- checkpoint serialization --------------------------------------

    def _pack_checkpoint(self, seq: int) -> bytes:
        """The slot image: canonical JSON, sorted keys, no spaces.

        Frozen bytes — the length is charged I/O, so it feeds every
        digest.  Both variable sections are joins of rows kept in image
        form; only what changed since the last image is touched here.
        """
        keys, rows = self._cp_keys, self._cp_rows
        for page in self._cp_dead:
            at = bisect_left(keys, page)
            del keys[at], rows[at]
        self._cp_dead.clear()
        allocated, table = self._allocated, self._cp_allocated
        for seg in allocated.keys() - table.keys():
            table[seg] = "[%d,%d,%d,%d]" % (
                seg, allocated[seg], self._written.get(seg, 0),
                self._control.get(seg, 0),
            )
        blob = (
            '{"allocated":[%s],"gc_generation":%d,"head":%s,"imap":[%s],'
            '"record_seq":%d,"segment_seq":%d,"seq":%d}' % (
                ",".join(map(table.__getitem__, sorted(table))),
                self.gc_generation,
                "null" if self._head_seg is None
                else "[%d,%d]" % (self._head_seg, self._head_off),
                ",".join(rows),
                self._next_rec_seq, self._next_seg_seq, seq,
            )
        ).encode()
        return _CP_HEADER.pack(
            _CP_MAGIC, seq, len(blob), zlib.crc32(blob)
        ) + blob

    @staticmethod
    def _parse_checkpoint(raw: Optional[bytes]) -> Optional[dict]:
        if raw is None or len(raw) < _CP_HEADER.size:
            return None
        magic, seq, length, crc = _CP_HEADER.unpack_from(raw, 0)
        if magic != _CP_MAGIC:
            return None
        blob = raw[_CP_HEADER.size:_CP_HEADER.size + length]
        if len(blob) != length or zlib.crc32(blob) != crc:
            return None
        try:
            doc = json.loads(blob.decode())
        except (UnicodeDecodeError, json.JSONDecodeError):
            return None

        # The CRC vouches for the bytes, not for who framed them: only
        # an image of exactly the shape _recover unpacks may leave here.
        if not isinstance(doc, dict) or doc.get("seq") != seq:
            return None

        def int_rows(rows: object, arity: int) -> bool:
            want = [int] * arity       # bool is not int here
            return isinstance(rows, list) and all(
                isinstance(row, list) and list(map(type, row)) == want
                for row in rows
            )

        head = doc.get("head", ())
        counters = [doc.get(name) for name in (
            "seq", "gc_generation", "record_seq", "segment_seq")]
        if (int_rows([counters], 4)
                and int_rows([] if head is None else [head], 2)
                and int_rows(doc.get("allocated"), 4)
                and int_rows(doc.get("imap"), 7)):
            return doc
        return None

    def _write_checkpoint(self) -> None:
        """Write the next checkpoint slot (kill site ``checkpoint``).

        A crash here always unwinds with ``owe_checkpoint=True``: every
        durable unit before the checkpoint completed, so the redo must
        write only the checkpoint itself.
        """
        seq = self._cp_next_seq
        packed = self._pack_checkpoint(seq)
        slot = seq % 2
        torn = self._consult_kill("checkpoint")
        if torn is not None:
            # As with appends, a killed write retains at most all but
            # the final byte of the slot image.
            cut = min(int(torn * len(packed)), len(packed) - 1)
            old = self._cp_slots[slot]
            damaged = bytearray(old if old is not None else b"")
            if len(damaged) < cut:
                damaged.extend(bytes(cut - len(damaged)))
            damaged[:cut] = packed[:cut]
            self._cp_slots[slot] = bytes(damaged)
            raise _SimulatedCrash("checkpoint", owe_checkpoint=True)
        lost = (
            self.injector is not None
            and self.injector.lfs_checkpoint_lost()
        )
        if not lost:
            self._cp_slots[slot] = packed
        self._op_seconds += self.device.write(len(packed),
                                              sequential=False)
        self._cp_next_seq = seq + 1
        self._opens_since_cp = 0
        self.counters.checkpoints_written += 1

    # ------------------------------------------------------------------
    # Recovery replay
    # ------------------------------------------------------------------

    def _segment_header(self, seg: int) -> Optional[int]:
        """Valid on-disk segment sequence number, or None."""
        data = self._disk.get(seg)
        if data is None or len(data) < _SEG_HEADER.size:
            return None
        magic, sseq, crc = _SEG_HEADER.unpack_from(data, 0)
        if magic != _SEG_MAGIC:
            return None
        if zlib.crc32(data[:_SEG_HEADER.size - 4]) != crc:
            return None
        return sseq

    def _recover(self) -> None:
        """Rebuild everything from checkpoint + forward log scan."""
        recovery = self.recovery
        best: Optional[dict] = None
        for raw in self._cp_slots:
            doc = self._parse_checkpoint(raw)
            if doc is None:
                if raw is not None:
                    recovery.invalid_checkpoint_slots += 1
                continue
            if best is None or doc["seq"] > best["seq"]:
                best = doc

        if best is not None:
            self.gc_generation = best["gc_generation"]
            self._next_rec_seq = best["record_seq"]
            self._next_seg_seq = best["segment_seq"]
            self._cp_next_seq = best["seq"] + 1
            self._allocated = {
                seg: sseq
                for seg, sseq, _written, _control in best["allocated"]
            }
            self._written = {
                seg: written
                for seg, _sseq, written, _control in best["allocated"]
            }
            self._control = {
                seg: control
                for seg, _sseq, _written, control in best["allocated"]
            }
            for pseg, pnum, seg, off, nbytes, crc, seq in best["imap"]:
                self._imap[PageId(pseg, pnum)] = LogLocation(
                    seg, off, nbytes, crc, seq
                )
            cp_head = best["head"]
        else:
            self._cp_next_seq = 0
            cp_head = None

        cp_head_seq = -1
        scan: List[Tuple[int, int, int]] = []  # (seg_seq, segment, start)
        if cp_head is not None:
            head_seg = cp_head[0]
            cp_head_seq = self._allocated.get(head_seg, -1)
            # Chaos-only case: the checkpoint head segment was cleaned
            # and reused since this (stale) checkpoint; its current life
            # is picked up by the seg-seq sweep below instead.
            if self._segment_header(head_seg) == cp_head_seq:
                scan.append((cp_head_seq, head_seg, cp_head[1]))
        for seg in range(self.config.total_segments):
            sseq = self._segment_header(seg)
            if sseq is not None and sseq > cp_head_seq:
                scan.append((sseq, seg, _SEG_HEADER.size))
        scan.sort()

        # Live bytes from the checkpoint imap, and segment -> pages
        # mapped into it (replay keeps both exact), so a segment-free
        # record costs its victim's pages, not a scan of the imap.
        pages_in: Dict[int, set] = {}
        for page, loc in self._imap.items():
            self._live[loc.segment] = (
                self._live.get(loc.segment, 0)
                + _REC_HEADER.size + loc.nbytes
            )
            pages_in.setdefault(loc.segment, set()).add(page)

        last_seen_seq = -1
        base_seg_seq = self._next_seg_seq
        stops: List[int] = []
        counts: List[int] = []
        for sseq, seg, start in scan:
            if self._allocated.get(seg, sseq) != sseq:
                # Cleaned and reused since the checkpoint: the previous
                # life's record bytes are gone from the medium, so its
                # checkpointed written-bytes figures must not carry over.
                self._written[seg] = 0
                self._control[seg] = 0
            self._allocated[seg] = sseq
            self._next_seg_seq = max(self._next_seg_seq, sseq + 1)
            recovery.scanned_segments += 1
            stop, max_seq, count = self._replay_segment(
                seg, sseq, start, last_seen_seq, pages_in
            )
            last_seen_seq = max(last_seen_seq, max_seq)
            stops.append(stop)
            counts.append(count)

        # A torn *open*: the chunk's segment header reached the medium
        # but no record did.  A committed open always carries at least
        # one record, so a header-only trailing segment can only be the
        # prefix of a torn write — roll it back to the free list, so the
        # redo re-opens it (same segment, same sequence number) and the
        # run counts the open exactly once, like an uninterrupted run.
        while (scan and counts[-1] == 0
               and scan[-1][2] == _SEG_HEADER.size
               and stops[-1] == scan[-1][2]):
            dropped = scan.pop()[1]
            stops.pop()
            counts.pop()
            self._allocated.pop(dropped, None)
            self._written.pop(dropped, None)
            self._control.pop(dropped, None)
            self._live.pop(dropped, None)
            self._next_seg_seq = base_seg_seq
            for sseq in self._allocated.values():
                self._next_seg_seq = max(self._next_seg_seq, sseq + 1)

        final_head: Optional[Tuple[int, int]] = (
            (cp_head[0], cp_head[1]) if cp_head is not None else None
        )
        if scan:
            final_head = (scan[-1][1], stops[-1])
        if final_head is not None:
            self._head_seg, self._head_off = final_head
        allocated = set(self._allocated)
        self._free = sorted(
            set(range(self.config.total_segments)) - allocated
        )
        self._sealed = set(
            seg for seg in allocated if seg != self._head_seg
        )
        self._sealed_live = sum(
            self._live.get(seg, 0) for seg in self._sealed
        )
        self._opens_since_cp = sum(
            1 for sseq in self._allocated.values() if sseq > cp_head_seq
        )
        # Rebuild the read index and the checkpoint rows (everything
        # in a recovered imap is durable; no segment row is cached yet).
        self._seg_offsets = {}
        self._seg_page_at = {}
        self._cp_keys = sorted(self._imap)
        for page in self._cp_keys:
            loc = self._imap[page]
            self._cp_rows.append(_cp_row(page, loc))
            self._seg_offsets.setdefault(loc.segment, []).append(loc.offset)
            self._seg_page_at.setdefault(loc.segment, {})[loc.offset] = (
                page
            )
        for offsets in self._seg_offsets.values():
            offsets.sort()

    def _replay_segment(
        self, seg: int, sseq: int, start: int, last_seen_seq: int,
        pages_in: Dict[int, set],
    ) -> Tuple[int, int, int]:
        """Scan one segment; returns (stop offset, max seq, records)."""
        data = self._disk.get(seg)
        recovery = self.recovery
        off = start
        max_seq = last_seen_seq
        replayed = 0
        if data is None:
            return off, max_seq, replayed
        size = _REC_HEADER.size
        while off + size <= len(data):
            (magic, kind, _pad, rseq, rec_sseq, pseg, pnum, nbytes,
             payload_crc, header_crc) = _REC_HEADER.unpack_from(data, off)
            valid = (
                magic == _REC_MAGIC
                and kind in (_KIND_DATA, _KIND_TOMBSTONE, _KIND_FREESEG)
                and rec_sseq == sseq
                and rseq > max_seq
                and zlib.crc32(data[off:off + size - 4]) == header_crc
                and off + size + nbytes <= len(data)
            )
            if valid:
                payload = bytes(data[off + size:off + size + nbytes])
                if zlib.crc32(payload) != payload_crc:
                    valid = False
            if not valid:
                # Count as torn only what looks like a record of this
                # segment's current life; stale bytes from a previous
                # life (a cleaned-and-reused segment) are ordinary tail
                # garbage, not evidence of a torn write.
                if magic == _REC_MAGIC and rec_sseq == sseq:
                    recovery.torn_records += 1
                break
            record_size = size + nbytes
            replayed += 1
            recovery.replayed_records += 1
            recovery.scanned_bytes += record_size
            self._written[seg] = self._written.get(seg, 0) + record_size
            if kind == _KIND_FREESEG:
                # A committed clean: the named segment (the "page"
                # segment field; payload holds its sequence number at
                # clean time) is durably free, whatever the checkpoint
                # believed.
                self._control[seg] = (
                    self._control.get(seg, 0) + record_size
                )
                victim_sseq = struct.unpack("<Q", payload)[0]
                if self._allocated.get(pseg) == victim_sseq:
                    self._allocated.pop(pseg, None)
                    self._written.pop(pseg, None)
                    self._control.pop(pseg, None)
                    self._live.pop(pseg, None)
                    # Any imap entry still pointing into the freed
                    # segment is stale: every live record was copied
                    # (and remapped by an earlier replay) before the
                    # FREESEG committed, so what remains are pages
                    # whose tombstones lived in log regions since
                    # cleaned away.  Keeping them would resurrect
                    # acknowledged frees and corrupt the segment's
                    # next-life live accounting on later supersedes.
                    for stale in pages_in.pop(pseg, ()):
                        del self._imap[stale]
            else:
                page = PageId(pseg, pnum)
                old = self._imap.get(page)
                if old is not None:
                    self._live[old.segment] = (
                        self._live.get(old.segment, 0)
                        - _REC_HEADER.size - old.nbytes
                    )
                    pages_in[old.segment].discard(page)
                if kind == _KIND_DATA:
                    self._imap[page] = LogLocation(
                        seg, off, nbytes, payload_crc, rseq
                    )
                    pages_in.setdefault(seg, set()).add(page)
                    self._live[seg] = (
                        self._live.get(seg, 0) + record_size
                    )
                else:
                    self._imap.pop(page, None)
            max_seq = rseq
            self._next_rec_seq = max(self._next_rec_seq, rseq + 1)
            off += record_size
        return off, max_seq, replayed

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------

    def put(self, page_id: PageId, payload: bytes) -> float:
        """Store a compressed page; returns seconds charged.

        With ``sync_appends`` the record is durable on return
        (acknowledged == recoverable); otherwise it joins the staging
        buffer and is durable once a batch flush runs, exactly like the
        fragment store's contract.
        """
        if not payload:
            raise ValueError("refusing to store an empty compressed page")
        self._op_seconds = 0.0
        owe_checkpoint = False
        owe_clean = None
        while True:
            try:
                # owe_clean: an inline clean's commit record was
                # durable at the crash; settle its accounting, then
                # re-run the body.  owe_checkpoint: everything up to
                # the periodic checkpoint completed durably — the redo
                # must write only the checkpoint, not re-log the
                # (already durable) record.
                if owe_clean is not None:
                    self._finish_clean(owe_clean)
                    owe_clean = None
                if owe_checkpoint:
                    self._write_checkpoint()
                else:
                    self._put_body(page_id, payload)
                break
            except _SimulatedCrash as crash:
                owe_checkpoint = owe_checkpoint or crash.owe_checkpoint
                owe_clean = crash.owe_clean
                self._crash_and_recover()
        self.counters.pages_put += 1
        return self._op_seconds

    def _put_body(self, page_id: PageId, payload: bytes) -> None:
        displaced = self._discard(page_id)
        self._stage(_KIND_DATA, page_id, payload, garbage=displaced)
        if self.sync_appends or self._pending_bytes >= self.batch_bytes:
            self._flush_internal()

    def free(self, page_id: PageId) -> None:
        """Invalidate the stored copy (logged as a tombstone record).

        A tombstone is logged only when a durable record needs killing;
        a page that exists solely in the staging buffer is dropped
        silently — unless the staged copy itself displaced a durable
        record, which must still be tombstoned or it would resurrect
        on recovery.
        """
        if page_id not in self._imap and page_id not in self._sticky_corrupt:
            return
        self._sticky_corrupt.pop(page_id, None)
        if page_id not in self._imap:
            return
        self._op_seconds = 0.0
        owe_checkpoint = False
        owe_clean = None
        staged = False
        while True:
            try:
                if owe_clean is not None:
                    self._finish_clean(owe_clean)
                    owe_clean = None
                if owe_checkpoint:
                    self._write_checkpoint()
                else:
                    if page_id in self._imap:
                        displaced = self._discard(page_id)
                        if displaced:
                            self._stage(_KIND_TOMBSTONE, page_id, b"",
                                        garbage=displaced)
                            staged = True
                    if staged and (
                        self.sync_appends
                        or self._pending_bytes >= self.batch_bytes
                    ):
                        self._flush_internal()
                break
            except _SimulatedCrash as crash:
                owe_checkpoint = owe_checkpoint or crash.owe_checkpoint
                owe_clean = crash.owe_clean
                self._crash_and_recover()
        if staged:
            self.counters.tombstones += 1

    def flush(self) -> float:
        """Append the staged batch; returns seconds charged."""
        self._op_seconds = 0.0
        owe_checkpoint = False
        owe_clean = None
        while True:
            try:
                if owe_clean is not None:
                    self._finish_clean(owe_clean)
                    owe_clean = None
                if owe_checkpoint:
                    self._write_checkpoint()
                else:
                    self._flush_internal()
                return self._op_seconds
            except _SimulatedCrash as crash:
                owe_checkpoint = owe_checkpoint or crash.owe_checkpoint
                owe_clean = crash.owe_clean
                self._crash_and_recover()

    def _discard(self, page_id: PageId) -> int:
        """Drop a page's current mapping (supersede or free).

        Returns the size of the *durable* record left behind as
        garbage, for the displacing entry to count at commit.  Dropping
        a still-pending entry forwards the garbage it was itself
        carrying.
        """
        old = self._imap.pop(page_id, None)
        if old is None:
            return 0
        size = _REC_HEADER.size + old.nbytes
        if old.segment < 0:
            entry = self._pending[old.offset]
            entry.kind = _KIND_DROPPED
            self._pending_bytes -= size
            return entry.garbage
        self._cp_dead.add(page_id)
        self._live_delta(old.segment, -size)
        offsets = self._seg_offsets.get(old.segment)
        if offsets is not None:
            del offsets[bisect_left(offsets, old.offset)]
            del self._seg_page_at[old.segment][old.offset]
        return size

    def _stage(self, kind: int, page_id: PageId, payload: bytes,
               cleaner: bool = False, garbage: int = 0) -> None:
        seq = self._next_rec_seq
        self._next_rec_seq += 1
        entry = _PendingEntry(kind, page_id, payload, seq, cleaner,
                              garbage)
        index = len(self._pending)
        self._pending.append(entry)
        self._pending_bytes += entry.size
        if kind == _KIND_DATA:
            self._imap[page_id] = LogLocation(
                -1, index, len(payload), entry.crc32, seq
            )

    def _live_delta(self, seg: int, delta: int) -> None:
        self._live[seg] = self._live.get(seg, 0) + delta
        if seg in self._sealed:
            self._sealed_live += delta

    # -- chunked append ------------------------------------------------

    def _flush_internal(self) -> None:
        """Append every staged record in sequential chunk writes.

        Each chunk is planned (pure computation), then the kill point is
        consulted, then the device write is charged, then the chunk's
        effects commit — so a crash or a device error always leaves the
        store consistent at a chunk boundary, with the unwritten entries
        still staged.
        """
        if self._pending_head >= len(self._pending):
            self._pending = []
            self._pending_head = 0
            self._pending_bytes = 0
            return
        if (not self._in_clean
                and len(self._free) <= self.config.reserve_segments):
            self._clean_pass()
        wrote = False
        config = self.config
        while True:
            # Skip dropped entries.
            while (self._pending_head < len(self._pending)
                   and self._pending[self._pending_head].kind
                   == _KIND_DROPPED):
                self._pending_head += 1
            if self._pending_head >= len(self._pending):
                break
            first = self._pending[self._pending_head]
            open_new = (
                self._head_seg is None
                or self._head_off + first.size > config.segment_bytes
            )
            if open_new:
                if not self._free:
                    raise RuntimeError(
                        "log-structured store out of segments "
                        f"({config.total_segments} total, all live)"
                    )
                if first.size > config.segment_capacity:
                    raise ValueError(
                        f"record of {first.size} bytes exceeds segment "
                        f"capacity {config.segment_capacity}"
                    )
                seg = self._free[0]          # lowest-numbered free
                sseq = self._next_seg_seq
                chunk_off = 0
                header = _SEG_HEADER.pack(
                    _SEG_MAGIC, sseq, 0
                )[:-4]
                chunk = bytearray(
                    header + struct.pack("<I", zlib.crc32(header))
                )
            else:
                seg = self._head_seg
                sseq = self._allocated[seg]
                chunk_off = self._head_off
                chunk = bytearray()
            # Pack as many staged records as fit this segment.
            packed: List[Tuple[_PendingEntry, int]] = []
            i = self._pending_head
            offset = records_at = chunk_off + len(chunk)
            while i < len(self._pending):
                entry = self._pending[i]
                if entry.kind == _KIND_DROPPED:
                    i += 1
                    continue
                if offset + entry.size > config.segment_bytes:
                    break
                chunk += self._pack_record(entry, sseq)
                packed.append((entry, offset))
                offset += entry.size
                i += 1

            torn = self._consult_kill("append")
            if torn is not None:
                # A crash mid-write always loses at least the final
                # byte: a fully-retained chunk would be a *completed*
                # write, and the kill point fires before completion.
                # The cut also lands *inside the first record* so a
                # torn chunk is all-or-nothing at record granularity:
                # a complete record retained from an unacknowledged
                # chunk would be durable work the crash fired before
                # charging, and the redo (which re-stages the same
                # records from the same source state) could not tell
                # it apart from work it still owes — replayed runs
                # would under-count the exact bytes the tear kept.
                first = packed[0][0].size if packed else len(chunk)
                cut = min(int(torn * len(chunk)), first - 1,
                          len(chunk) - 1)
                self._disk_write(seg, chunk_off, bytes(chunk[:cut]))
                raise _SimulatedCrash("append")
            self._op_seconds += self.device.write(
                len(chunk), sequential=True
            )
            self._disk_write(seg, chunk_off, bytes(chunk))
            # Commit.
            if open_new:
                del self._free[0]
                if self._head_seg is not None:
                    self._seal_head()
                self._allocated[seg] = sseq
                self._next_seg_seq = sseq + 1
                self._head_seg = seg
                self._live.setdefault(seg, 0)
                self._opens_since_cp += 1
                self.counters.segments_opened += 1
            # The chunk landed in one segment, so each byte count moves
            # once per chunk; only the maps are touched per record.
            self._head_off = offset
            imap, dead = self._imap, self._cp_dead
            keys, rows = self._cp_keys, self._cp_rows
            # Offsets within the head segment only grow: append keeps
            # the read index sorted.
            offsets = self._seg_offsets.setdefault(seg, [])
            page_at = self._seg_page_at.setdefault(seg, {})
            live = garbage = control = copied = 0
            for entry, rec_off in packed:
                size = entry.size
                if entry.kind == _KIND_DATA:
                    page = entry.page_id
                    loc = imap[page] = LogLocation(
                        seg, rec_off, len(entry.payload), entry.crc32,
                        entry.seq
                    )
                    at = bisect_left(keys, page)
                    if page in dead:
                        # Its previous durable row is still in place.
                        dead.remove(page)
                        rows[at] = _cp_row(page, loc)
                    else:
                        keys.insert(at, page)
                        rows.insert(at, _cp_row(page, loc))
                    live += size
                    offsets.append(rec_off)
                    page_at[rec_off] = page
                else:
                    # A tombstone or segment-free record is garbage the
                    # moment it lands.
                    garbage += size
                    if entry.kind == _KIND_FREESEG:
                        control += size
                # Bytes this record displaced, counted now that the
                # displacing record is durable (see _PendingEntry).
                garbage += entry.garbage
                if entry.cleaner:
                    copied += size
            self._pending_head = i
            self._pending_bytes -= offset - records_at
            self._written[seg] = (
                self._written.get(seg, 0) + offset - records_at
            )
            if control:
                self._control[seg] = self._control.get(seg, 0) + control
            self._live_delta(seg, live)
            self._cp_allocated.pop(seg, None)
            counters = self.counters
            counters.garbage_bytes_created += garbage
            counters.cleaner_copied_bytes += copied
            counters.append_writes += 1
            counters.appended_bytes += len(chunk)
            wrote = True
        self._pending = []
        self._pending_head = 0
        self._pending_bytes = 0
        if wrote:
            self.counters.batch_flushes += 1
            # The cleaner writes its own checkpoint when its pass ends;
            # a periodic checkpoint mid-clean would make a checkpoint
            # crash ambiguous (the clean itself would still be owed).
            if (not self._in_clean
                    and self._opens_since_cp >= self.config.checkpoint_every):
                self._write_checkpoint()

    @staticmethod
    def _pack_record(entry: _PendingEntry, sseq: int) -> bytes:
        head = _REC_HEADER.pack(
            _REC_MAGIC, entry.kind, 0, entry.seq, sseq,
            entry.page_id.segment, entry.page_id.number,
            len(entry.payload), entry.crc32, 0
        )[:-4]
        return (
            head + struct.pack("<I", zlib.crc32(head)) + entry.payload
        )

    def _seal_head(self) -> None:
        seg = self._head_seg
        self._sealed.add(seg)
        self._sealed_live += self._live.get(seg, 0)
        gap = self.config.segment_bytes - self._head_off
        if gap:
            self.counters.garbage_bytes_created += gap

    def _disk_write(self, seg: int, offset: int, data: bytes) -> None:
        buf = self._disk.get(seg)
        if buf is None:
            buf = self._disk[seg] = bytearray(self.config.segment_bytes)
        buf[offset:offset + len(data)] = data

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------

    def get(self, page_id: PageId) -> Tuple[bytes, float, List[PageId]]:
        """Fetch a compressed page.

        Returns ``(payload, seconds, colocated)`` where ``colocated``
        lists other live pages whose records were wholly contained in
        the blocks this read transferred, in log (= put) order.
        """
        loc = self._imap.get(page_id)
        if loc is None:
            raise MissingFragmentError(page_id, self.gc_generation)
        if loc.segment < 0:
            payload = self._pending[loc.offset].payload
            payload = self._verify(page_id, loc, payload, 0.0)
            self.counters.pages_got += 1
            return payload, 0.0, []

        block = self.config.block_bytes
        payload_off = loc.offset + _REC_HEADER.size
        lo = (loc.offset // block) * block
        hi = -(-(payload_off + loc.nbytes) // block) * block
        hi = min(hi, self.config.segment_bytes)
        seconds = self.device.read(hi - lo, sequential=False)
        data = self._disk[loc.segment]
        payload = bytes(data[payload_off:payload_off + loc.nbytes])
        payload = self._verify(page_id, loc, payload, seconds)
        self.counters.pages_got += 1

        colocated: List[PageId] = []
        offsets = self._seg_offsets.get(loc.segment, ())
        page_at = self._seg_page_at.get(loc.segment, {})
        imap = self._imap
        for i in range(bisect_left(offsets, lo),
                       bisect_left(offsets, hi)):
            other = page_at[offsets[i]]
            if other == page_id:
                continue
            other_loc = imap[other]
            if other_loc.offset + _REC_HEADER.size + other_loc.nbytes <= hi:
                colocated.append(other)
        return payload, seconds, colocated

    def peek(self, page_id: PageId) -> bytes:
        """Return a page's payload without charging I/O (prefetch)."""
        loc = self._imap.get(page_id)
        if loc is None:
            raise MissingFragmentError(page_id, self.gc_generation)
        if loc.segment < 0:
            payload = self._pending[loc.offset].payload
        else:
            start = loc.offset + _REC_HEADER.size
            payload = bytes(
                self._disk[loc.segment][start:start + loc.nbytes]
            )
        return self._verify(page_id, loc, payload, 0.0)

    _verify = verify_payload

    # ------------------------------------------------------------------
    # Segment cleaning
    # ------------------------------------------------------------------

    def maybe_collect(self, force: bool = False) -> float:
        """Run the segment cleaner if warranted; returns seconds.

        ``force`` cleans every sealed segment carrying garbage (the
        compaction the tests use); the natural triggers are a low free
        list and the sealed-garbage threshold.
        """
        self._op_seconds = 0.0
        owe_checkpoint = False
        owe_clean = None
        while True:
            try:
                self._collect_body(force, owe_checkpoint, owe_clean)
                return self._op_seconds
            except _SimulatedCrash as crash:
                owe_checkpoint = owe_checkpoint or crash.owe_checkpoint
                owe_clean = crash.owe_clean
                self._crash_and_recover()

    def _should_clean(self, force: bool) -> bool:
        if len(self._free) <= self.config.reserve_segments:
            return True
        if force:
            return True
        if len(self._sealed) < self.config.min_sealed_for_gc:
            return False
        return self.garbage_fraction > self.config.gc_threshold

    def _collect_body(
        self,
        force: bool,
        owe_checkpoint: bool,
        owe_clean: Optional[int] = None,
    ) -> None:
        cleaned = 0
        if owe_clean is not None:
            # The interrupted victim's free record was durable; settle
            # its accounting, then continue the pass where it stopped.
            self._finish_clean(owe_clean)
            cleaned = 1
        for _ in range(2 * self.config.total_segments):  # safety bound
            if not self._should_clean(force):
                break
            victim = self._select_victim()
            if victim is None:
                break
            self._clean_one(victim)
            cleaned += 1
        if cleaned or owe_checkpoint:
            self.gc_generation += 1
            self._write_checkpoint()
            self.counters.clean_runs += 1

    def _select_victim(self, pressure: bool = False) -> Optional[int]:
        """Lowest-utilization sealed segment holding real garbage.

        Eligibility is ``live < written - control`` (a superseded or
        freed *data* record exists), not merely a tail gap or the
        cleaner's own segment-free records — otherwise force-cleaning
        would chase the garbage each clean itself creates, forever.
        Under space ``pressure`` control bytes count as reclaimable
        too, so a low free list can still consolidate.  The (live,
        segment) key is crash-stable: a partially-cleaned victim's
        live bytes only shrink, so a redo after a mid-clean crash
        reselects the same victim and resumes it.
        """
        best_key = None
        live_of = self._live.get
        for seg in self._sealed:
            key = (live_of(seg, 0), seg)
            if best_key is not None and key > best_key:
                continue       # cannot win: skip the eligibility lookups
            reclaimable = self._written.get(seg, 0)
            if not pressure:
                reclaimable -= self._control.get(seg, 0)
            if key[0] < reclaimable:
                best_key = key
        return None if best_key is None else best_key[1]

    def _clean_pass(self) -> None:
        """Inline low-free-list cleaning from the append path."""
        for _ in range(2 * self.config.total_segments):  # safety bound
            if len(self._free) > self.config.reserve_segments:
                return
            victim = self._select_victim()
            if victim is None:
                victim = self._select_victim(pressure=True)
            if victim is None:
                return
            self._clean_one(victim)

    def _clean_one(self, victim: int) -> None:
        """Copy a victim's live records forward, then free it.

        The clean's durable commit point is a segment-free record
        appended after the last copy (in the same chunk): recovery
        replay deallocates the victim on seeing it, so a crash after a
        *completed* clean can never resurrect the freed segment and
        make the redo clean it a second time.  A crash before the
        record lands leaves the victim sealed with zero live bytes —
        still the lowest-utilization victim, so the redo reselects and
        recommits it, copying nothing.

        All completion accounting (the whole-segment read, the
        cleaned-segment count) charges after the ``clean`` kill site in
        :meth:`_finish_clean` — so an interrupted clean charges the run
        exactly once, same as an uninterrupted one.  The copies charge
        as ordinary appends when their chunks commit.
        """
        self._in_clean = True
        try:
            data = self._disk.get(victim, b"")
            # Live records in offset (= log) order; copies get fresh
            # sequence numbers, so replay order stays monotonic.
            offsets = list(self._seg_offsets.get(victim, ()))
            page_at = dict(self._seg_page_at.get(victim, {}))
            for off in offsets:
                page = page_at[off]
                loc = self._imap.get(page)
                if (loc is None or loc.segment != victim
                        or loc.offset != off):
                    continue
                start = off + _REC_HEADER.size
                payload = bytes(data[start:start + loc.nbytes])
                displaced = self._discard(page)
                self._stage(_KIND_DATA, page, payload, cleaner=True,
                            garbage=displaced)
                if self._pending_bytes >= self.batch_bytes:
                    self._flush_internal()
            self._stage(
                _KIND_FREESEG, PageId(victim, 0),
                struct.pack("<Q", self._allocated[victim]),
            )
            self._flush_internal()
            if self._consult_kill("clean") is not None:
                raise _SimulatedCrash("clean", owe_clean=victim)
        finally:
            self._in_clean = False
        self._finish_clean(victim)

    def _finish_clean(self, victim: int) -> None:
        """Charge and account a committed clean, and free the victim.

        Idempotent on structure: when redone after a crash (the
        ``owe_clean`` path) recovery has already deallocated the
        victim, and only the accounting side still needs to happen.
        """
        self._op_seconds += self.device.read(
            self.config.segment_bytes, sequential=False
        )
        self.counters.cleaner_reads += 1
        self.counters.segments_cleaned += 1
        if victim in self._allocated:
            self._sealed.discard(victim)
            self._sealed_live -= self._live.pop(victim, 0)
            self._allocated.pop(victim, None)
            self._written.pop(victim, None)
            self._control.pop(victim, None)
            self._cp_allocated.pop(victim, None)
            self._seg_offsets.pop(victim, None)
            self._seg_page_at.pop(victim, None)
            insort(self._free, victim)
