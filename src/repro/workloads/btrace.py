"""Compact binary reference traces with a streaming, mmap-backed reader.

The text format in :mod:`repro.sim.trace` is convenient to eyeball but
costs ~30 bytes and one ``str.split`` per reference; a multiprogram
trace of 10M references is a 300-MByte parse.  This module stores the
same information as fixed-width little-endian records so a trace can be
memory-mapped and replayed in chunks without ever materializing one
python object per reference.

On-disk layout (version 1), all fields little-endian::

    header   16 bytes   magic ``b"RBT1"``, u8 version, u8 record_size,
                        u16 reserved, u64 record count
    records  16 bytes   u8 op (bit 0 = write, other bits reserved),
             each       u8 reserved,
                        u16 segment id,
                        u32 page number,
                        u32 kind fingerprint (opaque content-kind tag;
                            0 = unknown),
                        u32 tick (application compute time, microseconds)

Mutations cannot be serialized (they are closures), so — exactly like
the text format — write records replay with the engine's default
one-word mutation.  The kind fingerprint exists for trace analysis
tooling (grouping references by content class); the simulator itself
never interprets it.

The reader hands out *column chunks* (parallel lists of writes, segment
ids, page numbers, and ticks) rather than record objects; the engine's
batch dispatch (:meth:`repro.sim.engine.SimulationEngine.run_trace`)
consumes them directly.  With numpy available the columns are decoded by
a single structured-dtype view per chunk; without it a
``struct.iter_unpack`` fallback produces identical values.

Reserved fields are enforced: a nonzero header pad is refused when the
trace is opened, and a record with op bits 1-7 or its pad byte set when
its chunk is decoded — both as :class:`~repro.sim.trace.TraceFormatError`,
the latter naming the record's index — so every trace the reader accepts
re-encodes to its own bytes.
"""

from __future__ import annotations

import io
import mmap
import struct
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Tuple, Union

from ..mem.page import PageId
from ..sim.engine import PageRef
from ..sim.trace import TraceFormatError

try:  # numpy is the optional [fast] extra; the reader works without it
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via fast=False
    _np = None

MAGIC = b"RBT1"
VERSION = 1
RECORD_SIZE = 16
HEADER = struct.Struct("<4sBBHQ")  # magic, version, record size, pad, count
RECORD = struct.Struct("<BBHIII")  # op, pad, segment, number, kind, tick
assert HEADER.size == 16 and RECORD.size == RECORD_SIZE

_OP_WRITE = 0x01
_OP_RESERVED = 0xFE  # op bits 1-7

#: numpy structured view of one record; field offsets match RECORD.
if _np is not None:
    RECORD_DTYPE = _np.dtype(
        [
            ("op", "u1"),
            ("pad", "u1"),
            ("segment", "<u2"),
            ("number", "<u4"),
            ("kind", "<u4"),
            ("tick", "<u4"),
        ]
    )
    assert RECORD_DTYPE.itemsize == RECORD_SIZE
else:  # pragma: no cover - no-numpy environments
    RECORD_DTYPE = None

#: One decoded chunk: (writes, segments, numbers, ticks_us) as parallel
#: plain-python lists, identical from both decode backends.
TraceChunk = Tuple[List[int], List[int], List[int], List[int]]


def _reserved_bits_set(index: int, op: int, pad: int) -> TraceFormatError:
    return TraceFormatError(
        f"record {index}: reserved bits set (op {op:#04x}, pad {pad:#04x})"
    )


def pack_record(
    segment: int,
    number: int,
    write: bool,
    kind: int = 0,
    tick_us: int = 0,
) -> bytes:
    """Encode one reference as its 16-byte record."""
    if not 0 <= segment <= 0xFFFF:
        raise ValueError(f"segment id out of u16 range: {segment}")
    if not 0 <= number <= 0xFFFFFFFF:
        raise ValueError(f"page number out of u32 range: {number}")
    return RECORD.pack(
        _OP_WRITE if write else 0,
        0,
        segment,
        number,
        kind & 0xFFFFFFFF,
        min(max(tick_us, 0), 0xFFFFFFFF),
    )


def pack_ref(ref: PageRef, kind: int = 0) -> bytes:
    """Encode a :class:`~repro.sim.engine.PageRef` (dropping mutations)."""
    return pack_record(
        ref.page_id.segment,
        ref.page_id.number,
        ref.write,
        kind=kind,
        tick_us=round(ref.compute_seconds * 1e6),
    )


class BinaryTraceWriter:
    """Streams records to a file; never holds the trace in memory.

    Usable as a context manager; the header (which carries the record
    count) is back-patched on :meth:`close`.
    """

    def __init__(self, target: Union[str, Path, io.BufferedIOBase]):
        if isinstance(target, (str, Path)):
            self._handle = open(target, "wb")
            self._owns_handle = True
        else:
            self._handle = target
            self._owns_handle = False
        self.count = 0
        self._closed = False
        self._handle.write(HEADER.pack(MAGIC, VERSION, RECORD_SIZE, 0, 0))

    def append(self, ref: PageRef, kind: int = 0) -> None:
        self._handle.write(pack_ref(ref, kind=kind))
        self.count += 1

    def append_record(
        self,
        segment: int,
        number: int,
        write: bool,
        kind: int = 0,
        tick_us: int = 0,
    ) -> None:
        self._handle.write(
            pack_record(segment, number, write, kind=kind, tick_us=tick_us)
        )
        self.count += 1

    def append_raw(self, records: bytes, count: int) -> None:
        """Append pre-packed records (e.g. a repeated block) verbatim."""
        if len(records) != count * RECORD_SIZE:
            raise ValueError(
                f"raw block of {len(records)} bytes is not "
                f"{count} x {RECORD_SIZE}-byte records"
            )
        self._handle.write(records)
        self.count += count

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._handle.seek(0)
        self._handle.write(
            HEADER.pack(MAGIC, VERSION, RECORD_SIZE, 0, self.count)
        )
        if self._owns_handle:
            self._handle.close()
        else:
            self._handle.flush()

    def __enter__(self) -> "BinaryTraceWriter":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def dump(
    target: Union[str, Path, io.BufferedIOBase],
    references: Iterable[PageRef],
    max_events: Optional[int] = None,
) -> int:
    """Record a reference stream to ``target``; returns the event count."""
    with BinaryTraceWriter(target) as writer:
        for ref in references:
            if max_events is not None and writer.count >= max_events:
                break
            writer.append(ref)
        return writer.count


def dump_repeated(
    target: Union[str, Path, io.BufferedIOBase],
    references: Iterable[PageRef],
    repeat: int = 1,
    max_events: Optional[int] = None,
) -> Tuple[int, int, float]:
    """Record a stream once as a packed block and write it ``repeat``
    times: the cheap way to build 10M+ reference traces for
    streaming-replay benchmarks without re-running the workload.

    ``max_events`` bounds the one recorded pass.  Returns ``(events
    written, distinct pages, write fraction)``.
    """
    block = bytearray()
    touched = set()
    nwrites = 0
    for ref in islice(references, max_events):
        block += pack_ref(ref)
        touched.add(ref.page_id)
        nwrites += ref.write
    passed = len(block) // RECORD_SIZE
    with BinaryTraceWriter(target) as writer:
        for _ in range(max(1, repeat)):
            writer.append_raw(block, passed)
        return writer.count, len(touched), nwrites / passed if passed else 0.0


class BinaryTraceReader:
    """Streaming access to a binary trace.

    Args:
        source: path (memory-mapped by default) or an in-memory buffer.
        use_mmap: map the file instead of reading it into memory; the OS
            pages the trace in on demand, so replaying a multi-hundred-
            MByte trace costs only the chunk window of resident memory.
        fast: ``False`` forces the ``struct.iter_unpack`` decode path
            even when numpy is importable (the two backends are
            value-identical; this exists for tests and diagnostics).

    The full file structure is validated up front: bad magic, an unknown
    version, a foreign record size, a nonzero reserved header field, a
    truncated record region, or a count/size mismatch all raise
    :class:`~repro.sim.trace.TraceFormatError` at construction; records
    are checked as :meth:`chunks` decodes them.
    """

    def __init__(
        self,
        source: Union[str, Path, bytes, bytearray, memoryview],
        use_mmap: bool = True,
        fast: Optional[bool] = None,
    ):
        self._mmap: Optional[mmap.mmap] = None
        if isinstance(source, (str, Path)):
            with open(source, "rb") as handle:
                if use_mmap:
                    try:
                        self._mmap = mmap.mmap(
                            handle.fileno(), 0, access=mmap.ACCESS_READ
                        )
                        buf: Union[mmap.mmap, bytes] = self._mmap
                    except ValueError:
                        # Zero-byte file: cannot be mapped, and cannot be
                        # a trace either (no header).  Fall through with
                        # an empty buffer so the header check reports it.
                        buf = b""
                else:
                    buf = handle.read()
        else:
            buf = bytes(source)
        self._buf = buf
        self._fast = fast is not False and _np is not None
        size = len(buf)
        if size < HEADER.size:
            self.close()
            raise TraceFormatError(
                f"binary trace shorter than its {HEADER.size}-byte header "
                f"({size} bytes)"
            )
        magic, version, record_size, pad, count = HEADER.unpack_from(buf, 0)
        if magic != MAGIC:
            self.close()
            raise TraceFormatError(f"bad binary-trace magic: {magic!r}")
        if version != VERSION:
            self.close()
            raise TraceFormatError(
                f"unsupported binary-trace version {version} "
                f"(this reader speaks v{VERSION})"
            )
        if record_size != RECORD_SIZE:
            self.close()
            raise TraceFormatError(
                f"record size {record_size} != expected {RECORD_SIZE}"
            )
        if pad:
            self.close()
            raise TraceFormatError(
                f"reserved header field is {pad:#06x}, not zero"
            )
        body = len(buf) - HEADER.size
        if body != count * RECORD_SIZE:
            self.close()
            raise TraceFormatError(
                f"trace declares {count} records "
                f"({count * RECORD_SIZE} bytes) but carries {body} bytes "
                f"of records — truncated or corrupt"
            )
        self._count = count

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._count

    @property
    def mmapped(self) -> bool:
        """Whether the trace is memory-mapped rather than resident."""
        return self._mmap is not None

    def close(self) -> None:
        if self._mmap is not None:
            try:
                self._mmap.close()
            except BufferError:
                # A view of the mapping is still out: the frame of a
                # decode that raised, kept by the exception's traceback.
                # The mapping is unmapped when that last view dies.
                pass
            self._mmap = None
        self._buf = b""

    def __enter__(self) -> "BinaryTraceReader":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------

    def chunks(self, chunk_size: int = 65536) -> Iterator[TraceChunk]:
        """Yield ``(writes, segments, numbers, ticks_us)`` column chunks.

        Each element is a plain-python list of ints (``writes`` entries
        are 0/1), at most ``chunk_size`` long; both decode backends
        produce identical values.  A chunk holding a record with a
        reserved bit set raises :class:`TraceFormatError` instead.
        """
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1: {chunk_size}")
        if self._fast:
            yield from self._chunks_numpy(chunk_size)
        else:
            yield from self._chunks_struct(chunk_size)

    def _chunks_numpy(self, chunk_size: int) -> Iterator[TraceChunk]:
        # One zero-copy structured view over the whole record region
        # (mmap included — numpy reads through the mapping lazily).
        arr = _np.frombuffer(
            self._buf, dtype=RECORD_DTYPE, count=self._count,
            offset=HEADER.size,
        )
        for start in range(0, self._count, chunk_size):
            part = arr[start:start + chunk_size]
            ops, pads = part["op"], part["pad"]
            bad = _np.flatnonzero((ops & _OP_RESERVED) | pads)
            if bad.size:
                first = int(bad[0])
                raise _reserved_bits_set(
                    start + first, int(ops[first]), int(pads[first])
                )
            yield (
                ops.tolist(),
                part["segment"].tolist(),
                part["number"].tolist(),
                part["tick"].tolist(),
            )

    def _chunks_struct(self, chunk_size: int) -> Iterator[TraceChunk]:
        view = memoryview(self._buf)
        for start in range(0, self._count, chunk_size):
            n = min(chunk_size, self._count - start)
            lo = HEADER.size + start * RECORD_SIZE
            writes: List[int] = []
            segments: List[int] = []
            numbers: List[int] = []
            ticks: List[int] = []
            for op, pad, segment, number, _, tick in RECORD.iter_unpack(
                view[lo:lo + n * RECORD_SIZE]
            ):
                if op & _OP_RESERVED or pad:
                    raise _reserved_bits_set(start + len(writes), op, pad)
                writes.append(op)
                segments.append(segment)
                numbers.append(number)
                ticks.append(tick)
            yield (writes, segments, numbers, ticks)

    def kinds(self, chunk_size: int = 65536) -> Iterator[List[int]]:
        """Yield the kind-fingerprint column (analysis tooling only)."""
        if self._fast:
            arr = _np.frombuffer(
                self._buf, dtype=RECORD_DTYPE, count=self._count,
                offset=HEADER.size,
            )
            for start in range(0, self._count, chunk_size):
                yield arr["kind"][start:start + chunk_size].tolist()
        else:
            view = memoryview(self._buf)
            for start in range(0, self._count, chunk_size):
                n = min(chunk_size, self._count - start)
                lo = HEADER.size + start * RECORD_SIZE
                yield [
                    rec[4]
                    for rec in RECORD.iter_unpack(
                        view[lo:lo + n * RECORD_SIZE]
                    )
                ]

    def __iter__(self) -> Iterator[PageRef]:
        """Compatibility iterator: one PageRef per record.

        Materializes python objects per reference — fine for analysis
        and tests; the engine's batch dispatch uses :meth:`chunks`.
        """
        interned = {}
        for writes, segments, numbers, ticks in self.chunks():
            for write, segment, number, tick in zip(
                writes, segments, numbers, ticks
            ):
                key = (segment, number)
                page_id = interned.get(key)
                if page_id is None:
                    page_id = interned[key] = PageId(segment, number)
                yield PageRef(
                    page_id=page_id,
                    write=bool(write),
                    compute_seconds=tick / 1e6 if tick else 0.0,
                )
